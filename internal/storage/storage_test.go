package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/wire"
)

func testBlock(seq uint64) *chain.Block {
	return &chain.Block{
		Header: chain.Header{
			Height:   seq,
			PrevHash: blockcrypto.Hash([]byte{byte(seq)}),
			TxRoot:   blockcrypto.Hash([]byte{byte(seq), 1}),
			Proposer: blockcrypto.KeyID(seq % 4),
			View:     seq / 7,
		},
		Txs: []chain.Tx{
			{ID: seq*10 + 1, Chaincode: "smallbank-sharded", Fn: "pay", Args: []string{"a", "b", "5"}, Client: 9},
			{ID: seq*10 + 2, Chaincode: "kvstore", Fn: "put", Args: []string{"k"}},
		},
	}
}

func testRecords(n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			out = append(out, Record{Kind: KindStage, Stage: []byte{byte(i), 0xEE, byte(i >> 4)}})
		} else {
			out = append(out, Record{Kind: KindBlock, Seq: uint64(i + 1), Block: testBlock(uint64(i + 1))})
		}
	}
	return out
}

func testSnapshot(seq uint64) Snapshot {
	return Snapshot{
		Seq: seq,
		// Deliberately ahead of Seq: execution past the checkpoint must
		// round-trip, it is what recovery resumes from.
		ExecutedThrough: seq + 2,
		View:            2,
		State: chain.Snapshot{
			KV:      map[string][]byte{"c_alice": []byte("100"), "c_bob": []byte("42")},
			Version: seq * 3,
			Digest:  blockcrypto.Hash([]byte{byte(seq), 7}),
		},
		ExecIDs: []uint64{11, 12, 21},
		OKIDs:   []uint64{11, 21},
		FailIDs: []uint64{12},
		Cert:    []byte{1, 2, 3},
		Stage:   []byte{4, 5},
	}
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func wantSnapshot(t *testing.T, got *Snapshot, want Snapshot) {
	t.Helper()
	if got == nil {
		t.Fatal("recovered nil snapshot")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("snapshot mismatch:\n got %+v\nwant %+v", *got, want)
	}
}

// contract drives any Backend through append → snapshot → append →
// recover and checks the recovered tail is exactly what followed the
// snapshot. reopen rebuilds the backend between write and read phases
// (nil for engines without cross-instance persistence).
func contract(t *testing.T, open func(t *testing.T) Backend, reopen func(t *testing.T) Backend) {
	recs := testRecords(7)
	snap := testSnapshot(4)

	b := open(t)
	for _, r := range recs[:3] {
		if err := b.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := b.SaveSnapshot(snap); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	if err := b.TruncateBefore(snap.Seq); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	for _, r := range recs[3:] {
		if err := b.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if reopen != nil {
		if err := b.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		b = reopen(t)
	}
	gotSnap, tail, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	wantSnapshot(t, gotSnap, snap)
	wantRecords(t, tail, recs[3:])
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := b.Append(recs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestMemoryContract(t *testing.T) {
	contract(t, func(t *testing.T) Backend { return NewMemory() }, nil)
}

func TestDiskContract(t *testing.T) {
	dir := t.TempDir()
	open := func(t *testing.T) Backend {
		d, err := OpenDisk(dir, DiskOptions{Logf: t.Logf})
		if err != nil {
			t.Fatalf("open disk: %v", err)
		}
		return d
	}
	contract(t, open, open)
}

func TestDiskEmptyRecover(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	snap, tail, err := d.Recover()
	if err != nil || snap != nil || len(tail) != 0 {
		t.Fatalf("empty recover = (%v, %v, %v), want (nil, empty, nil)", snap, tail, err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestDiskFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, DiskOptions{Fsync: mode})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			recs := testRecords(4)
			for _, r := range recs {
				if err := d.Append(r); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			d, err = OpenDisk(dir, DiskOptions{Fsync: mode})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			_, tail, err := d.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			wantRecords(t, tail, recs)
			d.Close()
		})
	}
}

// TestDiskSegmentRollAndTruncate forces multi-segment logs with a tiny
// roll threshold and checks truncation deletes only segments below every
// retained snapshot's base.
func TestDiskSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{SegmentBytes: 256, Logf: t.Logf}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(12)
	for _, r := range recs[:6] {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.SaveSnapshot(testSnapshot(6)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := d.TruncateBefore(6); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	// Only one snapshot is retained, so truncation may reclaim everything
	// below its base; the log must still hold the tail.
	for _, r := range recs[6:] {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.SaveSnapshot(testSnapshot(12)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := d.TruncateBefore(12); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	// Two snapshots retained: segments at or above the OLDER base must
	// survive so a fallback recovery can still replay.
	segs, err := listNumbered(d.walDir, walSuffix, 10)
	if err != nil {
		t.Fatalf("list segments: %v", err)
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments left after truncation")
	}
	if segs[0] < d.truncFloor() {
		t.Fatalf("segment %d survived below truncation floor %d", segs[0], d.truncFloor())
	}
	if base, ok := d.snapBases[6]; !ok {
		t.Fatal("older snapshot base not tracked")
	} else if segs[0] > base {
		t.Fatalf("oldest segment %d is above fallback snapshot base %d", segs[0], base)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	d, err = OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	snap, tail, err := d.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	wantSnapshot(t, snap, testSnapshot(12))
	wantRecords(t, tail, nil)
	d.Close()
}

// TestDiskSnapshotCRCFallback damages the newest snapshot file and checks
// recovery falls back to the previous one and replays the WAL records
// that followed it — including the span the damaged snapshot covered.
func TestDiskSnapshotCRCFallback(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{SegmentBytes: 256, Logf: t.Logf}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := testRecords(9)
	for _, r := range recs[:3] {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.SaveSnapshot(testSnapshot(3)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, r := range recs[3:6] {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.SaveSnapshot(testSnapshot(6)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := d.TruncateBefore(6); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	for _, r := range recs[6:] {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Flip one byte in the newest snapshot's body.
	newest := filepath.Join(dir, "snap", "0000000000000006.snap")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("rewrite snapshot: %v", err)
	}

	d, err = OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("reopen after damage: %v", err)
	}
	snap, tail, err := d.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	wantSnapshot(t, snap, testSnapshot(3))
	wantRecords(t, tail, recs[3:])
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("damaged snapshot file not removed (stat err %v)", err)
	}
	d.Close()
}

// TestDiskAllSnapshotsCorrupt checks that when every snapshot fails
// validation the open reports ErrCorrupt rather than silently starting
// from an empty state.
func TestDiskAllSnapshotsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.SaveSnapshot(testSnapshot(5)); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, "snap", "0000000000000005.snap")
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := OpenDisk(dir, DiskOptions{Logf: t.Logf}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with all snapshots corrupt: %v, want ErrCorrupt", err)
	}
}

// TestDiskMidLogCorruption flips a byte in a non-final segment: that is
// not explainable as a torn write, so the open must fail typed, not
// truncate.
func TestDiskMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := DiskOptions{SegmentBytes: 200}
	d, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, r := range testRecords(10) {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	segs, err := listNumbered(d.walDir, walSuffix, 10)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", segs, err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	first := filepath.Join(dir, "wal", "00000000.wal")
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	if _, err := OpenDisk(dir, DiskOptions{SegmentBytes: 200, Logf: t.Logf}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log damage: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotStateViewSavesStateBytes pins the streamed save path: a
// snapshot whose state is given as a pinned view encodes to the same body
// as the same snapshot with the materialized state, so files written
// either way decode identically, and recovery hands back State.
func TestSnapshotStateViewSavesStateBytes(t *testing.T) {
	store := chain.NewStore()
	for i := 0; i < 300; i++ {
		store.Apply(chain.WriteSet{{Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}}})
	}
	head := store.Head()
	withState := testSnapshot(9)
	withState.State = head.Snapshot()
	withView := testSnapshot(9)
	withView.State = chain.Snapshot{}
	withView.StateView = head

	var a, b wire.Encoder
	encodeSnapshotBody(&a, withState, 3, 5)
	encodeSnapshotBody(&b, withView, 3, 5)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("streamed body (%d B) differs from materialized body (%d B)", len(b.Bytes()), len(a.Bytes()))
	}

	m := NewMemory()
	if err := m.SaveSnapshot(withView); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, _, err := m.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	wantSnapshot(t, got, withState)
}
