package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestReaderIterOrderedAndBounded(t *testing.T) {
	s := NewStore()
	var ws WriteSet
	for i := 0; i < 500; i++ {
		ws = append(ws, Write{Key: fmt.Sprintf("k%04d", i*2), Value: []byte(strconv.Itoa(i))})
	}
	s.Apply(ws)
	r := s.Head()

	var prev string
	n := 0
	for it := r.Iter("", ""); ; {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		if n > 0 && k <= prev {
			t.Fatalf("iterator out of order: %q after %q", k, prev)
		}
		prev, n = k, n+1
	}
	if n != 500 {
		t.Fatalf("full scan saw %d keys, want 500", n)
	}

	// Half-open range [k0100, k0200).
	n = 0
	for it := r.Iter("k0100", "k0200"); ; {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		if k < "k0100" || k >= "k0200" {
			t.Fatalf("range leak: %q", k)
		}
		n++
	}
	if n != 50 {
		t.Fatalf("range scan saw %d keys, want 50", n)
	}

	// Seek to a key that is absent starts at the successor.
	it := r.Iter("k0099", "")
	if k, _, ok := it.Next(); !ok || k != "k0100" {
		t.Fatalf("seek to absent key gave %q ok=%v, want k0100", k, ok)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := map[string]string{
		"abc":        "abd",
		"a\xff":      "b",
		"\xff\xff":   "",
		"":           "",
		"L_":         "L`",
		"S_tx\x00k]": "S_tx\x00k^",
	}
	for in, want := range cases {
		if got := PrefixEnd(in); got != want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", in, got, want)
		}
	}
	s := NewStore()
	s.Apply(WriteSet{
		{Key: "L_a", Value: []byte("1")},
		{Key: "L_z", Value: []byte("2")},
		{Key: "L`", Value: []byte("3")}, // '`' == '_'+1: just past the prefix range
		{Key: "M_a", Value: []byte("4")},
	})
	got := s.Head().KeysWithPrefix("L_")
	if len(got) != 2 || got[0] != "L_a" || got[1] != "L_z" {
		t.Fatalf("KeysWithPrefix(L_) = %v", got)
	}
}

func TestSealReaderAtAndFloor(t *testing.T) {
	s := NewStore()
	var digests []string
	for i := 1; i <= 5; i++ {
		s.Apply(WriteSet{{Key: "k", Value: []byte(strconv.Itoa(i))}, {Key: "h" + strconv.Itoa(i), Value: []byte("x")}})
		s.Seal()
		digests = append(digests, s.Digest().String())
	}
	if v, ok := s.LatestSealed(); !ok || v != 5 {
		t.Fatalf("LatestSealed = %d ok=%v", v, ok)
	}
	for h := uint64(1); h <= 5; h++ {
		r, err := s.ReaderAt(h)
		if err != nil {
			t.Fatalf("ReaderAt(%d): %v", h, err)
		}
		if v, _ := r.Get("k"); string(v) != strconv.FormatUint(h, 10) {
			t.Fatalf("ReaderAt(%d).Get(k) = %q", h, v)
		}
		if r.Version() != h || r.Digest().String() != digests[h-1] {
			t.Fatalf("ReaderAt(%d) version/digest mismatch", h)
		}
		if r.Len() != 1+int(h) {
			t.Fatalf("ReaderAt(%d).Len = %d, want %d", h, r.Len(), 1+h)
		}
	}

	// Pins taken before the floor advances stay readable; new pins below
	// the floor fail typed. Every height was read above, so the first
	// SetFloor keeps them all; the second, with no read between, prunes
	// the ones below the floor.
	pinned, err := s.ReaderAt(2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFloor(4)
	s.SetFloor(4)
	if v, _ := pinned.Get("k"); string(v) != "2" {
		t.Fatal("existing pin invalidated by SetFloor")
	}
	for h := uint64(1); h < 4; h++ {
		if _, err := s.ReaderAt(h); !errors.Is(err, ErrHeightPruned) {
			t.Fatalf("ReaderAt(%d) below floor: %v, want ErrHeightPruned", h, err)
		}
	}
	if _, err := s.ReaderAt(4); err != nil {
		t.Fatalf("ReaderAt at the floor: %v", err)
	}
	if _, err := s.ReaderAt(99); !errors.Is(err, ErrHeightUnknown) {
		t.Fatalf("ReaderAt above head: %v, want ErrHeightUnknown", err)
	}

	// Sealing an unchanged version is a no-op.
	s.Seal()
	s.Seal()
	if v, _ := s.LatestSealed(); v != 5 {
		t.Fatalf("duplicate Seal changed window: %d", v)
	}
}

func TestRetentionCap(t *testing.T) {
	s := NewStore()
	s.maxRetain = 8
	for i := 0; i < 40; i++ {
		s.Apply(WriteSet{{Key: "k" + strconv.Itoa(i%4), Value: []byte{byte(i)}}})
		s.Seal()
	}
	for h := uint64(1); h < 33; h++ {
		if _, err := s.ReaderAt(h); !errors.Is(err, ErrHeightPruned) {
			t.Fatalf("capped-out height %d: %v", h, err)
		}
	}
	if _, err := s.ReaderAt(33); err != nil {
		t.Fatalf("oldest height inside the cap: %v", err)
	}
}

// sealNext applies one write and seals it, returning the new height.
func sealNext(s *Store, i int) uint64 {
	s.Apply(WriteSet{{Key: "k" + strconv.Itoa(i%7), Value: []byte(strconv.Itoa(i))}})
	s.Seal()
	return s.Version()
}

// retained reports whether height h is still in the retention window,
// without reading it (ReaderAt would mark it read).
func retained(s *Store, h uint64) bool {
	for _, sv := range s.sealed {
		if sv.version == h {
			return true
		}
	}
	return false
}

func rowsAt(t *testing.T, s *Store, h uint64) string {
	t.Helper()
	r, err := s.ReaderAt(h)
	if err != nil {
		t.Fatalf("ReaderAt(%d): %v", h, err)
	}
	var b strings.Builder
	for it := r.Iter("", ""); ; {
		k, v, ok := it.Next()
		if !ok {
			return b.String()
		}
		fmt.Fprintf(&b, "%s=%s ", k, v)
	}
}

// A reader that reads its version between checkpoints keeps it, and reads
// the same rows every time.
func TestReadPinSurvivesCheckpoints(t *testing.T) {
	s := NewStore()
	var pin uint64
	for i := 0; i < 5; i++ {
		pin = sealNext(s, i)
	}
	want := rowsAt(t, s, pin)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			sealNext(s, 5+3*round+i)
		}
		s.SetFloor(s.Version())
		if got := rowsAt(t, s, pin); got != want {
			t.Fatalf("after checkpoint %d: rows %q, want %q", round+1, got, want)
		}
	}
}

// An unread version below the floor is pruned at once; a pin read once and
// then abandoned survives the next SetFloor and is gone at the second.
func TestAbandonedPinPrunedAtSecondFloor(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		sealNext(s, i)
	}
	if _, err := s.ReaderAt(2); err != nil {
		t.Fatal(err)
	}
	s.SetFloor(4)
	for h := uint64(1); h <= 5; h++ {
		if retained(s, h) != (h == 2 || h >= 4) {
			t.Fatalf("height %d retained=%v after SetFloor(4) with only 2 read", h, retained(s, h))
		}
	}
	s.SetFloor(4)
	if retained(s, 2) {
		t.Fatal("pin unread across a whole checkpoint interval was kept")
	}
	if _, err := s.ReaderAt(2); !errors.Is(err, ErrHeightPruned) {
		t.Fatalf("abandoned pin: %v, want ErrHeightPruned", err)
	}
}

// The window turns sparse when a pin below the floor is kept: the heights
// between it and the floor are pruned, not unknown.
func TestPrunedBetweenKeptPinAndFloor(t *testing.T) {
	s := NewStore()
	for i := 0; i < 6; i++ {
		sealNext(s, i)
	}
	if _, err := s.ReaderAt(2); err != nil {
		t.Fatal(err)
	}
	s.SetFloor(5)
	for _, h := range []uint64{1, 3, 4} {
		if _, err := s.ReaderAt(h); !errors.Is(err, ErrHeightPruned) {
			t.Fatalf("ReaderAt(%d) beside the kept pin 2 below floor 5: %v, want ErrHeightPruned", h, err)
		}
	}
	if _, err := s.ReaderAt(2); err != nil {
		t.Fatalf("kept pin: %v", err)
	}
}

func TestCommitRecordIndex(t *testing.T) {
	s := NewStore()
	s.Apply(WriteSet{{Key: "a", Value: []byte("1")}})
	s.RecordCommit("tx1")
	s.Apply(WriteSet{{Key: "a", Value: []byte("2")}})
	s.RecordCommit("tx2")
	s.RecordCommit("tx2") // replay must be idempotent
	if v, ok := s.CommittedAt("tx1"); !ok || v != 1 {
		t.Fatalf("tx1 at %d ok=%v", v, ok)
	}
	if v, ok := s.CommittedAt("tx2"); !ok || v != 2 {
		t.Fatalf("tx2 at %d ok=%v", v, ok)
	}
	if _, ok := s.CommittedAt("nope"); ok {
		t.Fatal("unknown txid reported committed")
	}
	if len(s.commitQ) != 2 {
		t.Fatalf("commitQ len %d after idempotent re-record", len(s.commitQ))
	}
}

// TestCommitRecordIndexAgesOut crosses commitCap: the index stays at
// commitCap entries, each record past the cap evicts exactly the oldest,
// and the newest stays answerable with the version it was recorded at.
func TestCommitRecordIndexAgesOut(t *testing.T) {
	s := NewStore()
	const extra = 3
	for i := 0; i < commitCap+extra; i++ {
		if i == commitCap {
			s.Apply(WriteSet{{Key: "a", Value: []byte("past the cap")}})
		}
		s.RecordCommit("tx" + strconv.Itoa(i))
	}
	if len(s.commits) != commitCap || len(s.commitQ) != commitCap {
		t.Fatalf("index holds %d ids in a ring of %d, want %d", len(s.commits), len(s.commitQ), commitCap)
	}
	for i := 0; i < extra; i++ {
		if _, ok := s.CommittedAt("tx" + strconv.Itoa(i)); ok {
			t.Fatalf("tx%d still answerable after %d newer records", i, commitCap)
		}
	}
	if v, ok := s.CommittedAt("tx" + strconv.Itoa(extra)); !ok || v != 0 {
		t.Fatalf("oldest surviving record tx%d at %d ok=%v, want version 0", extra, v, ok)
	}
	if v, ok := s.CommittedAt("tx" + strconv.Itoa(commitCap+extra-1)); !ok || v != 1 {
		t.Fatalf("newest record at %d ok=%v, want version 1", v, ok)
	}
	// The ring keeps evicting in record order on its next lap.
	s.RecordCommit("one more")
	if _, ok := s.CommittedAt("tx" + strconv.Itoa(extra)); ok {
		t.Fatal("the oldest record survived an eviction")
	}
	if _, ok := s.CommittedAt("one more"); !ok {
		t.Fatal("the newest record is not answerable")
	}
}

func TestRestoreResetsRetention(t *testing.T) {
	s := NewStore()
	s.Apply(WriteSet{{Key: "a", Value: []byte("1")}})
	s.Seal()
	s.RecordCommit("tx1")
	sn := s.Head().Snapshot()

	r := NewStore()
	r.Apply(WriteSet{{Key: "z", Value: []byte("9")}})
	r.Seal()
	r.Restore(sn)
	if _, ok := r.LatestSealed(); ok {
		t.Fatal("Restore kept a sealed window from the discarded history")
	}
	if _, ok := r.CommittedAt("tx1"); ok {
		t.Fatal("Restore kept commit records")
	}
	if v, _ := r.Get("a"); string(v) != "1" {
		t.Fatalf("restored a = %q", v)
	}
	if r.Digest() != sn.Digest || r.Version() != sn.Version {
		t.Fatal("restore did not carry digest/version")
	}
	// Restored store seals and serves readers normally.
	r.Seal()
	rd, err := r.ReaderAt(sn.Version)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != 1 {
		t.Fatalf("restored reader len %d", rd.Len())
	}
}

// Property (satellite 4): a height-pinned reader returns byte-identical
// results while concurrent blocks commit and the checkpoint advances past
// the pinned height — a new pin below the floor fails with the typed
// ErrHeightPruned, and an existing pin never mixes versions.
func TestPinnedReaderStableUnderConcurrentCommits(t *testing.T) {
	const (
		keys   = 64
		blocks = 400
		pinned = 20
	)
	s := NewStore()
	rng := rand.New(rand.NewSource(7))

	// Build history up to the pin height, remembering the expected bytes.
	expect := make(map[string]string)
	applyBlock := func(i int) {
		var ws WriteSet
		for n := 0; n < 1+rng.Intn(4); n++ {
			k := "acct" + strconv.Itoa(rng.Intn(keys))
			if rng.Intn(8) == 0 {
				ws = append(ws, Write{Key: k, Value: nil})
			} else {
				ws = append(ws, Write{Key: k, Value: []byte(fmt.Sprintf("v%d-%d", i, n))})
			}
		}
		s.Apply(ws)
		s.Seal()
	}
	for i := 0; i < pinned; i++ {
		applyBlock(i)
	}
	pinReader, err := s.ReaderAt(uint64(pinned))
	if err != nil {
		t.Fatal(err)
	}
	for it := pinReader.Iter("", ""); ; {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		expect[k] = string(v)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 4)
	// Readers hammer the pinned view while the writer commits blocks and
	// advances the checkpoint floor past the pin.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r.Intn(2) == 0 {
					got := make(map[string]string, len(expect))
					for it := pinReader.Iter("", ""); ; {
						k, v, ok := it.Next()
						if !ok {
							break
						}
						got[k] = string(v)
					}
					if len(got) != len(expect) {
						fail <- fmt.Sprintf("pinned scan saw %d keys, want %d", len(got), len(expect))
						return
					}
					for k, v := range expect {
						if got[k] != v {
							fail <- fmt.Sprintf("pinned scan %s = %q, want %q", k, got[k], v)
							return
						}
					}
				} else {
					k := "acct" + strconv.Itoa(r.Intn(keys))
					v, ok := pinReader.Get(k)
					want, wantOK := expect[k]
					if ok != wantOK || (ok && string(v) != want) {
						fail <- fmt.Sprintf("pinned get %s = %q/%v, want %q/%v", k, v, ok, want, wantOK)
						return
					}
				}
				// Re-pinning must be all-or-nothing: either the height is
				// still sealed (and byte-identical) or it is typed-pruned.
				re, err := s.ReaderAt(uint64(pinned))
				switch {
				case err == nil:
					if re.Version() != uint64(pinned) {
						fail <- "re-pin returned wrong version"
						return
					}
					if v, ok := re.Get("acct0"); ok != (expect["acct0"] != "") && string(v) != expect["acct0"] {
						fail <- "re-pin mixed versions"
						return
					}
				case errors.Is(err, ErrHeightPruned):
					// Checkpoint passed the pin: the typed contract.
				default:
					fail <- fmt.Sprintf("re-pin unexpected error: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}

	for i := pinned; i < blocks; i++ {
		applyBlock(i)
		if i%10 == 0 {
			s.SetFloor(s.Version() - 5) // checkpoint advances past the pin
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	// The readers re-pinned between checkpoints, which kept the pin; with
	// them gone it is pruned at the second checkpoint.
	s.SetFloor(s.Version() - 5)
	s.SetFloor(s.Version() - 5)
	if _, err := s.ReaderAt(uint64(pinned)); !errors.Is(err, ErrHeightPruned) {
		t.Fatalf("pin after checkpoint advance: %v, want ErrHeightPruned", err)
	}

	// The pinned view is still byte-identical after all 400 blocks.
	for k, want := range expect {
		if v, ok := pinReader.Get(k); !ok || string(v) != want {
			t.Fatalf("after history: pinned %s = %q/%v, want %q", k, v, ok, want)
		}
	}
}

// The chunked index must agree with a plain map across random workloads,
// and sealed views must be isolated from later mutation.
func TestStoreMatchesModelAcrossSeals(t *testing.T) {
	s := NewStore()
	model := make(map[string]string)
	sealedModels := make(map[uint64]map[string]string)
	rng := rand.New(rand.NewSource(42))

	for step := 0; step < 2000; step++ {
		k := "key" + strconv.Itoa(rng.Intn(300))
		if rng.Intn(5) == 0 {
			s.Apply(WriteSet{{Key: k, Value: nil}})
			delete(model, k)
		} else {
			v := strconv.Itoa(step)
			s.Apply(WriteSet{{Key: k, Value: []byte(v)}})
			model[k] = v
		}
		if rng.Intn(20) == 0 {
			s.Seal()
			snap := make(map[string]string, len(model))
			for mk, mv := range model {
				snap[mk] = mv
			}
			sealedModels[s.Version()] = snap
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("live len %d, model %d", s.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := s.Get(k); !ok || string(got) != v {
			t.Fatalf("live %s = %q/%v, want %q", k, got, ok, v)
		}
	}
	checked := 0
	for ver, m := range sealedModels {
		r, err := s.ReaderAt(ver)
		if errors.Is(err, ErrHeightPruned) {
			continue
		}
		if err != nil {
			t.Fatalf("ReaderAt(%d): %v", ver, err)
		}
		if r.Len() != len(m) {
			t.Fatalf("sealed %d len %d, model %d", ver, r.Len(), len(m))
		}
		for it := r.Iter("", ""); ; {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if m[k] != string(v) {
				t.Fatalf("sealed %d: %s = %q, model %q", ver, k, v, m[k])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sealed versions survived to be checked")
	}
}
