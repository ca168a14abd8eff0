package pbft

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/obs"
	"repro/internal/storage"
)

// durableTestCluster builds a committee and attaches an in-memory durable
// backend to replica 0, then runs enough traffic to pass a stable
// checkpoint so the replica has persisted at least one snapshot.
func durableTestCluster(t *testing.T) (*testCluster, *Replica, *storage.Memory) {
	t.Helper()
	tc := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
	r := tc.bc.Replicas[0]
	mem := storage.NewMemory()
	r.durable = mem
	tc.engine.Schedule(0, func() { tc.submit(0, 20) })
	tc.run(20 * time.Second)
	if r.stableSnapSeq == 0 {
		t.Fatal("no stable checkpoint reached; cannot exercise durable snapshots")
	}
	return tc, r, mem
}

// replayBlock builds a minimal decided block ReplayDecided will accept
// (the ledger validates the tx root on append).
func replayBlock(id uint64) *chain.Block {
	txs := []chain.Tx{{ID: id, Chaincode: "kvstore", Fn: "put", Args: []string{"rk", "rv"}}}
	return &chain.Block{Header: chain.Header{TxRoot: chain.TxRoot(txs)}, Txs: txs}
}

// replayTail feeds a recovered WAL tail through r the way boot recovery
// does and returns how many block records it replayed.
func replayTail(t *testing.T, r *Replica, tail []storage.Record) int {
	t.Helper()
	blocks := 0
	for _, rec := range tail {
		switch rec.Kind {
		case storage.KindBlock:
			if err := r.ReplayDecided(rec.Seq, rec.Block); err != nil {
				t.Fatalf("replay seq %d: %v", rec.Seq, err)
			}
			blocks++
		case storage.KindCheckpoint:
			r.ReplayCheckpoint(rec.Seq)
		}
	}
	return blocks
}

// TestDurableSnapshotExecutionAheadOfCheckpoint is the restart-loop
// regression: a checkpoint quorum can form for seq while the replica has
// already executed further blocks that left the state digest unchanged
// (all their transactions deduped or failed), so the snapshot is captured
// with executedThrough > seq. The durable snapshot must record the true
// execution watermark — restoring it as if execution stopped at seq makes
// the replayed WAL tail (which resumes at executedThrough+1) look like a
// gap, and the node fails with ErrCorrupt on every boot.
func TestDurableSnapshotExecutionAheadOfCheckpoint(t *testing.T) {
	_, r, mem := durableTestCluster(t)

	// The reviewer scenario: execution ran two no-op blocks past the
	// stable checkpoint before the quorum formed.
	seq := r.stableSnapSeq
	r.executedThrough = seq + 2
	r.persistDurableSnapshot()

	snap, _, err := mem.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil || snap.Seq != seq || snap.ExecutedThrough != seq+2 {
		t.Fatalf("persisted snapshot = %+v, want Seq=%d ExecutedThrough=%d", snap, seq, seq+2)
	}

	// Boot a fresh replica from it: the crash-restart path.
	tc2 := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
	r2 := tc2.bc.Replicas[0]
	if _, err := r2.RestoreDurableSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r2.executedThrough != seq+2 {
		t.Fatalf("restored executedThrough = %d, want %d", r2.executedThrough, seq+2)
	}
	if r2.h != seq {
		t.Fatalf("restored stable checkpoint = %d, want %d", r2.h, seq)
	}
	// A record at or below the watermark (seen when replaying from an
	// older fallback snapshot) is skipped, not an error.
	if err := r2.ReplayDecided(seq+1, replayBlock(9001)); err != nil {
		t.Fatalf("replay of already-covered seq %d: %v", seq+1, err)
	}
	// The WAL tail resumes right after the watermark; before the fix this
	// was rejected as a gap ("resumes at seq+3, want seq+1") and the node
	// could never boot again.
	if err := r2.ReplayDecided(seq+3, replayBlock(9002)); err != nil {
		t.Fatalf("replay of WAL tail at seq %d: %v", seq+3, err)
	}
	if r2.executedThrough != seq+3 {
		t.Fatalf("executedThrough after tail replay = %d, want %d", r2.executedThrough, seq+3)
	}
}

// rootCounter wraps a backend and counts the root decisions the replica
// asks for (one per stable checkpoint whose state it holds) and the roots
// it saves. With notDue set it reports no root due, whatever the backend
// says.
type rootCounter struct {
	storage.Backend
	notDue        bool
	checks, saves int
}

func (c *rootCounter) RootDue() bool {
	c.checks++
	return !c.notDue && c.Backend.RootDue()
}

func (c *rootCounter) SaveSnapshot(s storage.Snapshot) error {
	c.saves++
	return c.Backend.SaveSnapshot(s)
}

// TestRootDueGatesCheckpointsNotInstalls: a stable checkpoint saves a
// durable root only when the backend reports one due, while installing a
// peer's snapshot always saves one — the WAL does not hold that state.
func TestRootDueGatesCheckpointsNotInstalls(t *testing.T) {
	_, src, _ := durableTestCluster(t)

	tc2 := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
	r := tc2.bc.Replicas[0]
	gate := &rootCounter{Backend: storage.NewMemory(), notDue: true}
	r.durable = gate
	tc2.engine.Schedule(0, func() { tc2.submit(0, 20) })
	tc2.run(20 * time.Second)
	if r.stableSnapSeq == 0 || gate.checks == 0 {
		t.Fatalf("no stable checkpoint asked for a root (stable seq %d, %d checks)", r.stableSnapSeq, gate.checks)
	}
	if gate.saves != 0 {
		t.Fatalf("%d roots saved at checkpoints although none was due", gate.saves)
	}

	// The same gate on a replica that installs a peer's state.
	r3 := newTestCluster(t, 4, VariantHL, nil, nil).bc.Replicas[0]
	gate3 := &rootCounter{Backend: storage.NewMemory(), notDue: true}
	r3.durable = gate3
	r3.installSnapshot(src.stableSnapSeq, src.snapshotStableState(), src.stableCert, src.stableExec.ids)
	if gate3.saves != 1 {
		t.Fatalf("installSnapshot saved %d roots, want 1", gate3.saves)
	}
	snap, _, err := gate3.Recover()
	if err != nil || snap == nil || snap.Seq != src.stableSnapSeq || snap.State.Digest != src.stableView.Digest() {
		t.Fatalf("root after install = %+v (err %v), want the installed checkpoint %d", snap, err, src.stableSnapSeq)
	}
}

// TestDurableRootPerSegmentRecovers runs a replica on a real disk store
// with small segments and checkpoints every 4 single-tx blocks, so many
// checkpoints pass per segment. It checks that roots are saved once per
// segment roll, not once per checkpoint; that the WAL stays within Keep+1
// segments plus the current one; and that recovery from the newest root
// plus a tail spanning two segments — or, with that root's file damaged,
// from the older root plus a longer tail — reaches the same store digest.
func TestDurableRootPerSegmentRecovers(t *testing.T) {
	tune := func(o *Options) {
		o.BatchSize = 1
		o.CheckpointEvery = 4
		o.Window = 16
		o.Timing.BatchEarlyCut = testEarlyCut
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opts := storage.DiskOptions{SegmentBytes: 8192, Fsync: storage.FsyncOff, Logf: t.Logf, Metrics: storage.NewMetrics(reg)}
	d, err := storage.OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tc := newTestCluster(t, 4, VariantHL, nil, tune)
	r := tc.bc.Replicas[0]
	counter := &rootCounter{Backend: d}
	r.durable = counter
	tc.engine.Schedule(0, func() { tc.submit(0, 150) })
	tc.run(30 * time.Second)
	// Stop with the log rolled past the newest root, so the tail recovery
	// replays spans two segments.
	for i := 0; !d.RootDue(); i++ {
		if i == 50 {
			t.Fatal("the WAL never rolled past the newest root")
		}
		tc.submit(0, 1)
		tc.engine.Run(tc.engine.Now().Add(time.Second))
	}

	// One root per roll: every root follows exactly one size roll (a
	// checkpoint interval writes well under a segment) and rolls once more
	// itself, and one size roll is pending.
	rolls := reg.Counter("storage_wal_segment_rolls_total").Load()
	if counter.saves < 2 || rolls != uint64(2*counter.saves+1) {
		t.Fatalf("%d roots over %d segment rolls, want >= 2 roots and rolls = 2*roots+1", counter.saves, rolls)
	}
	if counter.checks < 4*counter.saves {
		t.Fatalf("%d roots over %d checkpoints: roots are not paced by the WAL", counter.saves, counter.checks)
	}
	segs, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(segs) > 2+2 {
		t.Fatalf("%d WAL segments on disk (err %v), want at most Keep+1 plus the current one", len(segs), err)
	}
	want, wantExec, wantStable := r.store.Digest(), r.executedThrough, r.h
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recoverDigest := func() int {
		t.Helper()
		d2, err := storage.OpenDisk(dir, storage.DiskOptions{Logf: t.Logf})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d2.Close()
		snap, tail, err := d2.Recover()
		if err != nil || snap == nil {
			t.Fatalf("recover: %v (snapshot %v)", err, snap)
		}
		r2 := newTestCluster(t, 4, VariantHL, nil, tune).bc.Replicas[0]
		if _, err := r2.RestoreDurableSnapshot(snap); err != nil {
			t.Fatalf("restore: %v", err)
		}
		blocks := replayTail(t, r2, tail)
		if r2.store.Digest() != want || r2.executedThrough != wantExec || r2.h != wantStable {
			t.Fatalf("recovered from root %d: executedThrough %d, stable checkpoint %d, digest match %v; want %d, %d and a match",
				snap.Seq, r2.executedThrough, r2.h, r2.store.Digest() == want, wantExec, wantStable)
		}
		return blocks
	}
	tail := recoverDigest()

	// Damage the newest root: recovery falls back to the older one and
	// replays everything since it.
	snaps, err := os.ReadDir(filepath.Join(dir, "snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("%d snapshot files (err %v), want Keep = 2", len(snaps), err)
	}
	newest := filepath.Join(dir, "snap", snaps[len(snaps)-1].Name())
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("rewrite snapshot: %v", err)
	}
	if longer := recoverDigest(); longer <= tail {
		t.Fatalf("fallback recovery replayed %d blocks, want more than the %d after the newest root", longer, tail)
	}
}

// TestCommitteeRestartPastStaleRoots restarts every replica of a committee
// at once, each more than a window of sequences past its newest root (here
// there is none: no root is ever due). Boot replay must bring each
// watermark back to the stable checkpoint the journal recorded, not leave
// it at the root's: otherwise the leader cannot assign a sequence,
// followers refuse its proposals, and no peer is ahead to move the
// watermark for them, so nothing commits again.
func TestCommitteeRestartPastStaleRoots(t *testing.T) {
	tune := func(o *Options) {
		o.BatchSize = 1
		o.CheckpointEvery = 4
		o.Window = 8
		o.Timing.BatchEarlyCut = testEarlyCut
	}
	const before, after = 30, 10
	tc := newTestCluster(t, 4, VariantHL, nil, tune)
	journals := make([]storage.Backend, len(tc.bc.Replicas))
	for i, r := range tc.bc.Replicas {
		journals[i] = &rootCounter{Backend: storage.NewMemory(), notDue: true}
		r.durable = journals[i]
	}
	tc.engine.Schedule(0, func() { tc.submit(0, before) })
	tc.run(20 * time.Second)
	tc.requireAgreement(t, before)

	tc2 := newTestCluster(t, 4, VariantHL, nil, tune)
	tc2.nextTx = tc.nextTx
	for i, r := range tc2.bc.Replicas {
		snap, tail, err := journals[i].Recover()
		if err != nil || snap != nil {
			t.Fatalf("replica %d: recover: %v (root %+v), want the journal alone", i, err, snap)
		}
		replayTail(t, r, tail)
		old := tc.bc.Replicas[i]
		if r.executedThrough != old.executedThrough || r.h != old.h {
			t.Fatalf("replica %d recovered executed %d, stable %d; want %d, %d as before the crash",
				i, r.executedThrough, r.h, old.executedThrough, old.h)
		}
		if r.executedThrough <= r.opts.Window {
			t.Fatalf("replica %d replayed %d sequences, want more than the window %d past its root",
				i, r.executedThrough, r.opts.Window)
		}
		r.durable = journals[i]
	}
	tc2.engine.Schedule(0, func() {
		for _, r := range tc2.bc.Replicas {
			r.ResyncWithPeers()
		}
		tc2.submit(0, after)
	})
	tc2.run(20 * time.Second)
	tc2.requireAgreement(t, before+after)
}

// TestDurableSnapshotCoversExecutingBlock pins the companion window: a
// decided block is WAL-appended before it executes, so when a snapshot is
// persisted mid-execution that block's only record sits below the replay
// floor the snapshot establishes while its effects are absent from the
// captured state. persistDurableSnapshot must re-append it above the
// floor, or recovery replays a tail that starts one block late.
func TestDurableSnapshotCoversExecutingBlock(t *testing.T) {
	_, r, mem := durableTestCluster(t)

	next := r.executedThrough + 1
	e := &entry{seq: next, block: replayBlock(9100)}
	if !r.appendDecided(e) {
		t.Fatal("appendDecided failed")
	}
	r.executing, r.execEntry = true, e
	r.persistDurableSnapshot()
	r.executing, r.execEntry = false, nil

	snap, tail, err := mem.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil || snap.ExecutedThrough != next-1 {
		t.Fatalf("snapshot = %+v, want ExecutedThrough=%d", snap, next-1)
	}
	if len(tail) != 1 || tail[0].Kind != storage.KindBlock || tail[0].Seq != next {
		t.Fatalf("WAL tail above snapshot = %+v, want the in-flight block at seq %d", tail, next)
	}
}
