package wire

import (
	"sort"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/tee"
	"repro/internal/tee/aaom"
	"repro/internal/tee/aggregator"
)

// Shared-type encode/decode helpers. Protocol packages compose these into
// codecs for their own (often unexported) message structs, so the shapes
// that appear in many messages — transactions, blocks, signatures,
// attestation reports — are encoded exactly one way everywhere.
//
// Collection decoders never preallocate what a hostile length prefix
// claims: Count bounds the element count by the remaining input, and
// CapHint bounds the initial capacity, so growth is paid only as real
// input bytes are consumed and peak memory stays O(len(input)).

// maxCapHint bounds a decoder's speculative preallocation (elements).
const maxCapHint = 4096

// CapHint clamps a decoded collection length to a safe initial
// capacity; decoders append past it only as input is actually consumed.
func CapHint(n int) int {
	if n > maxCapHint {
		return maxCapHint
	}
	return n
}

func capHint(n int) int { return CapHint(n) }

// PutStrings appends a length-prefixed string slice.
func PutStrings(e *Encoder, ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Strings reads a string slice (nil when empty).
func Strings(d *Decoder) []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, capHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.String())
	}
	return out
}

// PutUint64s appends a length-prefixed uint64 slice.
func PutUint64s(e *Encoder, vs []uint64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Uvarint(v)
	}
}

// Uint64s reads a uint64 slice (nil when empty).
func Uint64s(d *Decoder) []uint64 {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, capHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, d.Uvarint())
	}
	return out
}

// PutSignature appends a blockcrypto.Signature.
func PutSignature(e *Encoder, s blockcrypto.Signature) {
	e.Uvarint(uint64(s.Signer))
	e.ByteSlice(s.Bytes)
}

// Signature reads a blockcrypto.Signature.
func Signature(d *Decoder) blockcrypto.Signature {
	return blockcrypto.Signature{
		Signer: blockcrypto.KeyID(d.Uvarint()),
		Bytes:  d.ByteSlice(),
	}
}

// PutReport appends a tee.Report.
func PutReport(e *Encoder, r tee.Report) {
	e.Digest(r.Measurement)
	e.Digest(r.ReportData)
	PutSignature(e, r.Sig)
}

// Report reads a tee.Report.
func Report(d *Decoder) tee.Report {
	return tee.Report{
		Measurement: d.Digest(),
		ReportData:  d.Digest(),
		Sig:         Signature(d),
	}
}

// PutAAOM appends an aaom trusted-log attestation.
func PutAAOM(e *Encoder, a aaom.Attestation) {
	e.String(a.Log)
	e.Uvarint(a.Slot)
	e.Digest(a.Digest)
	PutReport(e, a.Report)
}

// AAOM reads an aaom trusted-log attestation.
func AAOM(d *Decoder) aaom.Attestation {
	return aaom.Attestation{
		Log:    d.String(),
		Slot:   d.Uvarint(),
		Digest: d.Digest(),
		Report: Report(d),
	}
}

// PutAggVote appends an aggregator vote.
func PutAggVote(e *Encoder, v aggregator.Vote) {
	e.Uvarint(uint64(v.Voter))
	PutSignature(e, v.Sig)
}

// AggVote reads an aggregator vote.
func AggVote(d *Decoder) aggregator.Vote {
	return aggregator.Vote{
		Voter: blockcrypto.KeyID(d.Uvarint()),
		Sig:   Signature(d),
	}
}

// PutAggCert appends an aggregator quorum certificate.
func PutAggCert(e *Encoder, c aggregator.Cert) {
	e.Uvarint(c.Item.View)
	e.Uvarint(c.Item.Seq)
	e.String(c.Item.Phase)
	e.Digest(c.Item.Digest)
	e.Uvarint(uint64(len(c.Voters)))
	for _, v := range c.Voters {
		e.Uvarint(uint64(v))
	}
	PutReport(e, c.Report)
}

// AggCert reads an aggregator quorum certificate.
func AggCert(d *Decoder) aggregator.Cert {
	var c aggregator.Cert
	c.Item.View = d.Uvarint()
	c.Item.Seq = d.Uvarint()
	c.Item.Phase = d.String()
	c.Item.Digest = d.Digest()
	n := d.Count(1)
	if n > 0 {
		c.Voters = make([]blockcrypto.KeyID, 0, capHint(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			c.Voters = append(c.Voters, blockcrypto.KeyID(d.Uvarint()))
		}
	}
	c.Report = Report(d)
	return c
}

// PutTx appends a chain.Tx.
func PutTx(e *Encoder, t chain.Tx) {
	e.Uvarint(t.ID)
	e.String(t.Chaincode)
	e.String(t.Fn)
	PutStrings(e, t.Args)
	e.Uvarint(uint64(t.Client))
}

// Tx reads a chain.Tx.
func Tx(d *Decoder) chain.Tx {
	return chain.Tx{
		ID:        d.Uvarint(),
		Chaincode: d.String(),
		Fn:        d.String(),
		Args:      Strings(d),
		Client:    blockcrypto.KeyID(d.Uvarint()),
	}
}

// PutHeader appends a chain.Header.
func PutHeader(e *Encoder, h chain.Header) {
	e.Uvarint(h.Height)
	e.Digest(h.PrevHash)
	e.Digest(h.TxRoot)
	e.Digest(h.StateRoot)
	e.Uvarint(uint64(h.Proposer))
	e.Uvarint(h.View)
}

// Header reads a chain.Header.
func Header(d *Decoder) chain.Header {
	return chain.Header{
		Height:    d.Uvarint(),
		PrevHash:  d.Digest(),
		TxRoot:    d.Digest(),
		StateRoot: d.Digest(),
		Proposer:  blockcrypto.KeyID(d.Uvarint()),
		View:      d.Uvarint(),
	}
}

// PutBlock appends a possibly-nil block pointer (presence flag + value).
func PutBlock(e *Encoder, b *chain.Block) {
	if b == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	PutHeader(e, b.Header)
	e.Uvarint(uint64(len(b.Txs)))
	for _, t := range b.Txs {
		PutTx(e, t)
	}
}

// Block reads a possibly-nil block pointer.
func Block(d *Decoder) *chain.Block {
	if !d.Bool() {
		return nil
	}
	b := &chain.Block{Header: Header(d)}
	n := d.Count(1)
	if n > 0 {
		b.Txs = make([]chain.Tx, 0, capHint(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			b.Txs = append(b.Txs, Tx(d))
		}
	}
	return b
}

// PutSnapshot appends a chain.Snapshot. Map entries are encoded in sorted
// key order so the encoding is canonical.
func PutSnapshot(e *Encoder, s chain.Snapshot) {
	keys := make([]string, 0, len(s.KV))
	for k := range s.KV {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.ByteSlice(s.KV[k])
	}
	e.Uvarint(s.Version)
	e.Digest(s.Digest)
}

// PutSnapshotFrom streams the state pinned by r, writing exactly the bytes
// PutSnapshot(e, r.Snapshot()) writes. The reader's chunk tree is already
// in key order, so the walk needs no sort and materializes no map.
func PutSnapshotFrom(e *Encoder, r *chain.Reader) {
	e.Uvarint(uint64(r.Len()))
	for it := r.Iter("", ""); ; {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		e.String(k)
		e.ByteSlice(v)
	}
	e.Uvarint(r.Version())
	e.Digest(r.Digest())
}

// Snapshot reads a chain.Snapshot.
func Snapshot(d *Decoder) chain.Snapshot {
	n := d.Count(2)
	kv := make(map[string][]byte, capHint(n))
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.ByteSlice()
		if d.Err() != nil {
			break
		}
		kv[k] = v
	}
	return chain.Snapshot{
		KV:      kv,
		Version: d.Uvarint(),
		Digest:  d.Digest(),
	}
}
