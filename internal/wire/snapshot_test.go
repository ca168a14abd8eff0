package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chain"
	"repro/internal/wire"
)

// TestPutSnapshotFromMatchesPutSnapshot pins the streamed state encoder to
// the map-based one byte for byte: durable snapshot files written either
// way must be interchangeable. The stores cover the empty state, chunk
// splits (hundreds of keys per prefix), deletes that empty whole chunks,
// copy-on-write after Seal, and a tree rebuilt by Restore.
func TestPutSnapshotFromMatchesPutSnapshot(t *testing.T) {
	check := func(name string, r *chain.Reader) {
		t.Helper()
		var want, got wire.Encoder
		wire.PutSnapshot(&want, r.Snapshot())
		wire.PutSnapshotFrom(&got, r)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: streamed encoding (%d B) differs from PutSnapshot (%d B)", name, len(got.Bytes()), len(want.Bytes()))
		}
	}
	check("empty", chain.NewStore().Head())

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := chain.NewStore()
		keys := 50 + rng.Intn(1500)
		for round := 0; round < 30; round++ {
			ws := make(chain.WriteSet, 0, 64)
			for i := rng.Intn(64); i >= 0; i-- {
				k := fmt.Sprintf("%c_%d", 'a'+rng.Intn(3), rng.Intn(keys))
				var v []byte
				if rng.Intn(4) != 0 { // one write in four deletes
					v = []byte(fmt.Sprintf("v%d", rng.Int63()))
				}
				ws = append(ws, chain.Write{Key: k, Value: v})
			}
			s.Apply(ws)
			if rng.Intn(3) == 0 {
				s.Seal()
			}
		}
		// Delete every key of one prefix: drains whole chunks.
		var drop chain.WriteSet
		for it := s.Head().IterPrefix("b_"); ; {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			drop = append(drop, chain.Write{Key: k})
		}
		s.Apply(drop)
		head := s.Head()
		check(fmt.Sprintf("seed %d", seed), head)

		restored := chain.NewStore()
		restored.Restore(head.Snapshot())
		check(fmt.Sprintf("seed %d restored", seed), restored.Head())
	}
}
