package chain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blockcrypto"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Apply(WriteSet{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}})
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q ok=%v", v, ok)
	}
	if s.Len() != 2 || s.Version() != 1 {
		t.Fatalf("len=%d version=%d, want 2/1", s.Len(), s.Version())
	}
	s.Apply(WriteSet{{Key: "a", Value: nil}})
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	// Returned values must be copies.
	s.Apply(WriteSet{{Key: "c", Value: []byte("x")}})
	v, _ := s.Get("c")
	v[0] = 'y'
	v2, _ := s.Get("c")
	if string(v2) != "x" {
		t.Fatal("Get returned aliased storage")
	}
}

func TestStoreDigestTracksHistory(t *testing.T) {
	a, b := NewStore(), NewStore()
	ws1 := WriteSet{{Key: "k", Value: []byte("v")}}
	ws2 := WriteSet{{Key: "k", Value: []byte("w")}}
	a.Apply(ws1)
	a.Apply(ws2)
	b.Apply(ws1)
	if a.Digest() == b.Digest() {
		t.Fatal("different histories gave same digest")
	}
	b.Apply(ws2)
	if a.Digest() != b.Digest() {
		t.Fatal("same histories gave different digests")
	}
	// Empty write-set is a no-op.
	d := a.Digest()
	a.Apply(nil)
	if a.Digest() != d || a.Version() != 2 {
		t.Fatal("empty write-set changed state")
	}
}

func TestWriteSetDigestCanonical(t *testing.T) {
	ws1 := WriteSet{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}
	ws2 := WriteSet{{Key: "b", Value: []byte("2")}, {Key: "a", Value: []byte("1")}}
	if ws1.Digest() != ws2.Digest() {
		t.Fatal("write-set digest depends on order")
	}
	// Key/value boundary must be unambiguous.
	ws3 := WriteSet{{Key: "ab", Value: []byte("c")}}
	ws4 := WriteSet{{Key: "a", Value: []byte("bc")}}
	if ws3.Digest() == ws4.Digest() {
		t.Fatal("write-set digest boundary ambiguity")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Apply(WriteSet{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}})
	sn := s.Head().Snapshot()
	s.Apply(WriteSet{{Key: "a", Value: []byte("9")}})

	r := NewStore()
	r.Restore(sn)
	if v, _ := r.Get("a"); string(v) != "1" {
		t.Fatalf("restored a = %q, want 1", v)
	}
	if r.Digest() != sn.Digest || r.Version() != sn.Version {
		t.Fatal("restore did not carry digest/version")
	}
	// Snapshot is independent of subsequent mutation.
	if v, _ := s.Get("a"); string(v) != "9" {
		t.Fatal("original store lost its mutation")
	}
	if sn.SizeBytes() <= 0 {
		t.Fatal("snapshot size must be positive")
	}
}

func TestMerkleRootAndProofs(t *testing.T) {
	var leaves []blockcrypto.Digest
	for i := 0; i < 7; i++ {
		leaves = append(leaves, blockcrypto.Hash([]byte{byte(i)}))
	}
	root := MerkleRoot(leaves)
	if root.IsZero() {
		t.Fatal("zero root for nonempty leaves")
	}
	for i := range leaves {
		p := BuildMerkleProof(leaves, i)
		if !VerifyMerkleProof(root, leaves[i], p) {
			t.Fatalf("proof %d rejected", i)
		}
		if VerifyMerkleProof(root, blockcrypto.Hash([]byte("evil")), p) {
			t.Fatalf("proof %d accepted wrong leaf", i)
		}
	}
	if !MerkleRoot(nil).IsZero() {
		t.Fatal("root of zero leaves should be zero")
	}
	one := []blockcrypto.Digest{blockcrypto.Hash([]byte("x"))}
	if MerkleRoot(one) != one[0] {
		t.Fatal("root of single leaf should be the leaf")
	}
}

// Property: Merkle proofs verify for every index across random leaf counts,
// and the root changes if any leaf changes.
func TestMerkleProperty(t *testing.T) {
	f := func(n uint8, flip uint8) bool {
		count := int(n%32) + 1
		leaves := make([]blockcrypto.Digest, count)
		for i := range leaves {
			leaves[i] = blockcrypto.Hash([]byte{byte(i), n})
		}
		root := MerkleRoot(leaves)
		for i := range leaves {
			if !VerifyMerkleProof(root, leaves[i], BuildMerkleProof(leaves, i)) {
				return false
			}
		}
		j := int(flip) % count
		mut := append([]blockcrypto.Digest(nil), leaves...)
		mut[j] = blockcrypto.Hash([]byte("mut"))
		return MerkleRoot(mut) != root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func mkBlock(l *Ledger, txs []Tx) *Block {
	return &Block{Header: Header{
		Height:   l.Height(),
		PrevHash: l.TipHash(),
		TxRoot:   TxRoot(txs),
	}, Txs: txs}
}

func TestLedgerAppendAndVerify(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 5; i++ {
		txs := []Tx{{ID: uint64(i), Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}}}
		if err := l.Append(mkBlock(l, txs)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Height() != 5 {
		t.Fatalf("height = %d, want 5", l.Height())
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if l.Block(2).Header.Height != 2 {
		t.Fatal("Block(2) wrong")
	}
	if l.Block(99) != nil {
		t.Fatal("out-of-range Block not nil")
	}
}

func TestLedgerRejectsBadBlocks(t *testing.T) {
	l := NewLedger()
	if err := l.Append(mkBlock(l, nil)); err != nil {
		t.Fatal(err)
	}
	// Wrong height.
	b := mkBlock(l, nil)
	b.Header.Height = 7
	if err := l.Append(b); err == nil {
		t.Fatal("accepted wrong height")
	}
	// Wrong prev hash.
	b = mkBlock(l, nil)
	b.Header.PrevHash = blockcrypto.Hash([]byte("bogus"))
	if err := l.Append(b); err == nil {
		t.Fatal("accepted wrong prev hash")
	}
	// Tx root mismatch.
	b = mkBlock(l, []Tx{{ID: 1}})
	b.Txs = append(b.Txs, Tx{ID: 2})
	if err := l.Append(b); err == nil {
		t.Fatal("accepted tx-root mismatch")
	}
}

// appendN appends n one-tx blocks to every ledger in ls, each ledger
// getting its own copy of the same block.
func appendN(t *testing.T, n int, ls ...*Ledger) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := mkBlock(ls[0], []Tx{{ID: ls[0].Height(), Chaincode: "kvstore", Fn: "put", Args: []string{"k", "v"}}})
		for _, l := range ls {
			cp := *b
			if err := l.Append(&cp); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Property: a ledger pruned at random floors between random appends keeps
// the heights, tip digest, retained blocks and link checks of a ledger
// that was never pruned, and agrees with it over exactly its tail.
func TestLedgerFloorProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		full, tail := NewLedger(), NewLedger()
		for _, s := range steps {
			appendN(t, int(s%5), full, tail)
			// Floors past the height clamp; floors below the current one
			// are no-ops.
			tail.SetFloor(uint64(s>>3) % (full.Height() + 3))
			h := full.Height()
			if tail.Height() != h || tail.TipHash() != full.TipHash() {
				return false
			}
			if h > 0 && tail.TipHash() != full.Block(h-1).Digest() {
				return false
			}
			if tail.VerifyChain() != nil || tail.Floor() > h {
				return false
			}
			for x := uint64(0); x < h+2; x++ {
				got := tail.Block(x)
				if x < tail.Floor() || x >= h {
					if got != nil {
						return false
					}
				} else if got == nil || got.Digest() != full.Block(x).Digest() {
					return false
				}
			}
			if n, err := Agree(tail, full); err != nil || uint64(n) != h-tail.Floor() {
				return false
			}
		}
		// Appends continue the same chain after any prune.
		appendN(t, 3, full, tail)
		return tail.VerifyChain() == nil && tail.TipHash() == full.TipHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTailCatchesFlippedDigest flips one retained block's header at
// each position of a pruned ledger: VerifyChain must report it (through
// the next block's link, the recorded digest below the floor, or the
// cached tip), and Agree against an untouched copy must find the
// divergence.
func TestLedgerTailCatchesFlippedDigest(t *testing.T) {
	for pos := uint64(4); pos < 10; pos++ {
		for _, field := range []string{"proposer", "prev"} {
			a, b := NewLedger(), NewLedger()
			appendN(t, 10, a, b)
			a.SetFloor(4)
			b.SetFloor(2)
			blk := a.Block(pos)
			if field == "proposer" {
				blk.Header.Proposer++
			} else {
				blk.Header.PrevHash[0] ^= 1
			}
			if err := a.VerifyChain(); err == nil {
				t.Fatalf("flipped %s at height %d: VerifyChain passed", field, pos)
			}
			if _, err := Agree(a, b); err == nil {
				t.Fatalf("flipped %s at height %d: Agree passed", field, pos)
			}
		}
	}
}

func TestTxDigestBindsFields(t *testing.T) {
	base := Tx{ID: 1, Chaincode: "cc", Fn: "f", Args: []string{"a", "b"}, Client: 9}
	variants := []Tx{
		{ID: 2, Chaincode: "cc", Fn: "f", Args: []string{"a", "b"}, Client: 9},
		{ID: 1, Chaincode: "cd", Fn: "f", Args: []string{"a", "b"}, Client: 9},
		{ID: 1, Chaincode: "cc", Fn: "g", Args: []string{"a", "b"}, Client: 9},
		{ID: 1, Chaincode: "cc", Fn: "f", Args: []string{"ab"}, Client: 9},
		{ID: 1, Chaincode: "cc", Fn: "f", Args: []string{"a", "b"}, Client: 8},
	}
	for i, v := range variants {
		if v.Digest() == base.Digest() {
			t.Fatalf("variant %d collides with base", i)
		}
	}
	if base.SizeBytes() <= 0 {
		t.Fatal("tx size must be positive")
	}
}

func TestBlockDigestCommitsToTxs(t *testing.T) {
	l := NewLedger()
	b1 := mkBlock(l, []Tx{{ID: 1}})
	b2 := mkBlock(l, []Tx{{ID: 2}})
	if b1.Digest() == b2.Digest() {
		t.Fatal("blocks with different txs share digest")
	}
}
