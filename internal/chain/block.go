package chain

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blockcrypto"
)

// Tx is a transaction as ordered by consensus: an invocation of a
// chaincode function. ID is assigned by the submitting client and must be
// unique; committees deduplicate on it.
type Tx struct {
	ID        uint64
	Chaincode string
	Fn        string
	Args      []string
	// Client is the submitting client's key id, used for replies.
	Client blockcrypto.KeyID
}

// Digest returns the canonical transaction digest.
func (t Tx) Digest() blockcrypto.Digest {
	var idb [16]byte
	binary.BigEndian.PutUint64(idb[:8], t.ID)
	binary.BigEndian.PutUint64(idb[8:], uint64(t.Client))
	chunks := [][]byte{idb[:], []byte(t.Chaincode), []byte(t.Fn)}
	for _, a := range t.Args {
		chunks = append(chunks, []byte{0}, []byte(a))
	}
	return blockcrypto.Hash(chunks...)
}

// SizeBytes estimates the serialized transaction size for network
// modelling.
func (t Tx) SizeBytes() int {
	n := 64 + len(t.Chaincode) + len(t.Fn)
	for _, a := range t.Args {
		n += len(a) + 4
	}
	return n
}

// Header is a block header.
type Header struct {
	Height    uint64
	PrevHash  blockcrypto.Digest
	TxRoot    blockcrypto.Digest
	StateRoot blockcrypto.Digest
	Proposer  blockcrypto.KeyID
	View      uint64
}

// Block is a batch of transactions agreed on by a committee.
type Block struct {
	Header Header
	Txs    []Tx
}

// TxRoot computes the Merkle root over the block's transactions.
func TxRoot(txs []Tx) blockcrypto.Digest {
	leaves := make([]blockcrypto.Digest, len(txs))
	for i, t := range txs {
		leaves[i] = t.Digest()
	}
	return MerkleRoot(leaves)
}

// Digest returns the block digest (over the header; the header commits to
// the transactions through TxRoot).
func (b *Block) Digest() blockcrypto.Digest {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[:8], b.Header.Height)
	binary.BigEndian.PutUint64(buf[8:16], uint64(b.Header.Proposer))
	binary.BigEndian.PutUint64(buf[16:], b.Header.View)
	return blockcrypto.Hash(buf[:], b.Header.PrevHash[:], b.Header.TxRoot[:], b.Header.StateRoot[:])
}

// SizeBytes estimates the serialized block size.
func (b *Block) SizeBytes() int {
	n := 160
	for _, t := range b.Txs {
		n += t.SizeBytes()
	}
	return n
}

// Ledger is a shard's append-only chain of blocks. It holds the blocks
// from its floor up; SetFloor drops older ones (a replica's WAL and peers
// keep those), leaving the digest of the last dropped block so the
// retained tail still links to the chain below it.
type Ledger struct {
	floor     uint64             // height of blocks[0]
	floorPrev blockcrypto.Digest // digest of the block at floor-1 (zero when floor is 0)
	tipHash   blockcrypto.Digest // digest of the block at Height()-1 (zero when empty)
	blocks    []*Block
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Height returns the number of blocks ever appended, pruned ones included.
func (l *Ledger) Height() uint64 { return l.floor + uint64(len(l.blocks)) }

// Floor returns the lowest height the ledger still holds. Blocks below it
// were dropped by SetFloor.
func (l *Ledger) Floor() uint64 { return l.floor }

// TipHash returns the digest of the last block (zero digest when empty).
func (l *Ledger) TipHash() blockcrypto.Digest { return l.tipHash }

// Block returns the block at height h (0-based), or nil when h is pruned
// or not yet appended.
func (l *Ledger) Block(h uint64) *Block {
	if h < l.floor || h >= l.Height() {
		return nil
	}
	return l.blocks[h-l.floor]
}

// Append validates the chain linkage and appends b.
func (l *Ledger) Append(b *Block) error {
	if b.Header.Height != l.Height() {
		return fmt.Errorf("chain: block height %d, want %d", b.Header.Height, l.Height())
	}
	if b.Header.PrevHash != l.tipHash {
		return fmt.Errorf("chain: block %d prev-hash mismatch", b.Header.Height)
	}
	if got := TxRoot(b.Txs); got != b.Header.TxRoot {
		return fmt.Errorf("chain: block %d tx-root mismatch", b.Header.Height)
	}
	l.blocks = append(l.blocks, b)
	l.tipHash = b.Digest()
	return nil
}

// SetFloor drops the blocks below height h (clamped to Height). Heights,
// TipHash and further appends are unaffected; Block returns nil below the
// floor. A floor never moves down.
func (l *Ledger) SetFloor(h uint64) {
	h = min(h, l.Height())
	if h <= l.floor {
		return
	}
	drop := h - l.floor
	l.floorPrev = l.blocks[drop-1].Digest()
	// Shift in place and clear the vacated slots, so the dropped blocks are
	// unreachable and the array is reused.
	n := copy(l.blocks, l.blocks[drop:])
	clear(l.blocks[n:])
	l.blocks = l.blocks[:n]
	l.floor = h
}

// VerifyChain re-validates every hash link the ledger still holds: the
// retained tail must start from the digest recorded below the floor and
// end at the cached tip. Used in tests and after state transfer.
func (l *Ledger) VerifyChain() error {
	prev := l.floorPrev
	for i, b := range l.blocks {
		h := l.floor + uint64(i)
		if b.Header.Height != h {
			return fmt.Errorf("chain: block claims height %d at height %d", b.Header.Height, h)
		}
		if b.Header.PrevHash != prev {
			return fmt.Errorf("chain: broken link at height %d", h)
		}
		if TxRoot(b.Txs) != b.Header.TxRoot {
			return fmt.Errorf("chain: tx-root mismatch at height %d", h)
		}
		prev = b.Digest()
	}
	if prev != l.tipHash {
		return fmt.Errorf("chain: tip digest mismatch at height %d", l.Height())
	}
	return nil
}

// Agree checks that a and b are prefixes of one chain by comparing block
// digests at every height both still hold. A digest commits to its
// PrevHash, so a match at one common height proves both chains equal up
// to it. It returns how many heights were compared: zero means the
// retained tails do not overlap and nothing was checked.
func Agree(a, b *Ledger) (int, error) {
	lo, hi := max(a.floor, b.floor), min(a.Height(), b.Height())
	n := 0
	for h := lo; h < hi; h++ {
		if a.Block(h).Digest() != b.Block(h).Digest() {
			return n, fmt.Errorf("chain: ledgers diverge at height %d", h)
		}
		n++
	}
	return n, nil
}
