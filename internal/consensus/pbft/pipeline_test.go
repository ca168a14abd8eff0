package pbft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Safety regression tests for the pipelined consensus path: multiple
// in-flight pre-prepares across a view change, the pipeline-depth cap,
// crash-restart with a partially journaled pipeline window, and the
// duplicate-request reply cache while commits land for many sequences at
// once.

// testEarlyCut is the live runtime's idle-pipeline coalescing window.
const testEarlyCut = 500 * time.Microsecond

// pipelinedTune configures a committee for deep pipelining: single-tx
// batches so every transaction is its own sequence, a checkpoint window
// wide enough that PipelineDepth is the binding bound, and the live
// runtime's early batch cut.
func pipelinedTune(o *Options) {
	o.BatchSize = 1
	o.Window = 32
	o.CheckpointEvery = 16
	o.Timing.BatchEarlyCut = testEarlyCut
}

// TestViewChangeWithPipelinedPrePrepares crashes the leader while it has
// several pre-prepares in flight (assigned but not executed). The
// survivors must view-change and re-decide or re-propose every
// transaction exactly once, with all ledgers agreeing.
func TestViewChangeWithPipelinedPrePrepares(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, pipelinedTune)
	leader := tc.bc.Committee.Leader(0)
	var inFlightAtCrash uint64
	tc.engine.Schedule(0, func() { tc.submit(1, 40) })
	// Crash the leader the moment its pipeline is demonstrably loaded —
	// several sequences assigned past its own execution watermark. A
	// fixed crash time would race the (virtual) speed of the LAN.
	r0 := tc.bc.Replicas[0]
	var arm func()
	arm = func() {
		if inFlight := r0.seqAssign - r0.executedThrough; inFlight >= 4 {
			inFlightAtCrash = inFlight
			tc.net.Endpoint(leader).SetDown(true)
			return
		}
		if tc.engine.Now() < sim.Time(100*time.Millisecond) {
			tc.engine.Schedule(20*time.Microsecond, arm)
		}
	}
	tc.engine.Schedule(0, arm)
	tc.run(120 * time.Second)
	if inFlightAtCrash < 4 {
		t.Fatalf("precondition: only %d pre-prepares in flight at crash; the scenario needs a loaded pipeline", inFlightAtCrash)
	}
	for i := 1; i < 4; i++ {
		if got := tc.bc.Replicas[i].Executed(); got != 40 {
			t.Fatalf("replica %d executed %d of 40 after leader crash mid-pipeline", i, got)
		}
		if tc.bc.Replicas[i].View() == 0 {
			t.Fatalf("replica %d still in view 0 after leader crash", i)
		}
	}
	tc.requireAgreement(t, 40)
}

// TestPipelineDepthBoundsInFlight offers a burst of single-transaction
// batches far deeper than the pipeline and asserts the leader fills it to
// PipelineDepth but never assigns a sequence further past its own
// execution watermark (nor past the checkpoint window) at any sampled
// instant.
func TestPipelineDepthBoundsInFlight(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, pipelinedTune)
	tc.engine.Schedule(0, func() { tc.submit(0, 60) })
	r := tc.bc.Replicas[0]
	var violated string
	var peak uint64
	var sample func()
	sample = func() {
		peak = max(peak, r.seqAssign-r.executedThrough)
		if r.seqAssign > r.executedThrough+PipelineDepth && violated == "" {
			violated = "seqAssign ran past executedThrough+PipelineDepth"
		}
		if r.seqAssign > r.h+r.opts.Window && violated == "" {
			violated = "seqAssign ran past the checkpoint window"
		}
		if tc.engine.Now() < sim.Time(500*time.Millisecond) {
			tc.engine.Schedule(20*time.Microsecond, sample)
		}
	}
	tc.engine.Schedule(0, sample)
	tc.run(60 * time.Second)
	if violated != "" {
		t.Fatalf("pipeline bound violated: %s (seqAssign=%d executedThrough=%d h=%d)",
			violated, r.seqAssign, r.executedThrough, r.h)
	}
	if peak != PipelineDepth {
		t.Fatalf("peak in-flight sequences = %d, want the pipeline filled to PipelineDepth (%d)", peak, PipelineDepth)
	}
	tc.requireAgreement(t, 60)
}

// proposedAfter returns how long after virtual time since the leader of tc
// proposed sequence seq, and with how many transactions (0 if it never
// did within a second).
func proposedAfter(tc *testCluster, seq uint64, since time.Duration) (after time.Duration, txs int) {
	r := tc.bc.Replicas[0]
	var sample func()
	sample = func() {
		if e := r.entries[seq]; e != nil && e.prePrepared {
			after, txs = time.Duration(tc.engine.Now())-since, len(e.block.Txs)
			return
		}
		tc.engine.Schedule(10*time.Microsecond, sample)
	}
	tc.engine.Schedule(0, sample)
	tc.run(time.Second)
	return after, txs
}

// TestBatchEarlyCut pins the one batch-cut choice. An idle leader waits
// out BatchTimeout unless Timing.BatchEarlyCut is set; with it set, the
// cut comes one coalescing window after the first arrival, and a later
// arrival shares the block without pushing the cut forward. A request
// that arrived while the pipeline was busy keeps its BatchTimeout
// deadline when the pipeline then drains: the early cut may bring a
// pending cut forward but never postpones it.
func TestBatchEarlyCut(t *testing.T) {
	const (
		timeout = 50 * time.Millisecond // DefaultTiming().BatchTimeout
		arrival = time.Millisecond
		slack   = 100 * time.Microsecond
	)
	for _, c := range []struct {
		early, want time.Duration
	}{{0, timeout}, {testEarlyCut, testEarlyCut}} {
		tc := newTestCluster(t, 4, VariantAHLPlus, nil, func(o *Options) { o.Timing.BatchEarlyCut = c.early })
		tc.engine.Schedule(arrival, func() { tc.submit(0, 1) })
		tc.engine.Schedule(arrival+300*time.Microsecond, func() { tc.submit(0, 1) })
		if at, txs := proposedAfter(tc, 1, arrival); at < c.want || at > c.want+slack || txs != 2 {
			t.Errorf("BatchEarlyCut %v: idle leader cut %v after the first arrival with %d txs, want %v with 2",
				c.early, at, txs, c.want)
		}
	}

	// Sequence 1 keeps the pipeline busy for 15ms of execution; the second
	// request arrives just after its cut and arms the BatchTimeout cadence.
	// When the pipeline drains, a 40ms early cut would land after that
	// pending deadline, so the deadline stands.
	const early = 40 * time.Millisecond
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, func(o *Options) {
		o.Timing.BatchEarlyCut = early
		o.ExecPerTx = 15 * time.Millisecond
	})
	second := arrival + early + slack
	tc.engine.Schedule(arrival, func() { tc.submit(0, 1) })
	tc.engine.Schedule(second, func() { tc.submit(0, 1) })
	if at, txs := proposedAfter(tc, 2, second); txs != 1 || at > timeout+slack {
		t.Errorf("request pending behind a busy pipeline was cut %v after arrival (%d txs), want within BatchTimeout (%v)",
			at, txs, timeout)
	}
}

// txFor reconstructs the exact transaction testCluster.submit built for
// the given id, so retry storms resubmit byte-identical requests.
func (tc *testCluster) txFor(id uint64) chain.Tx {
	return chain.Tx{
		ID:        id,
		Chaincode: "kvstore",
		Fn:        "put",
		Args:      []string{fmt.Sprintf("k%d", id), "v"},
		Client:    9999,
	}
}

// TestDuplicateRequestReplyCacheUnderPipelining replays a client retry
// storm — the same 30 transactions submitted to every replica while the
// pipelined committee is deciding many sequences concurrently — and
// asserts exactly-once execution plus a populated reply cache for every
// transaction id.
func TestDuplicateRequestReplyCacheUnderPipelining(t *testing.T) {
	tc := newTestCluster(t, 4, VariantAHLPlus, nil, pipelinedTune)
	tc.engine.Schedule(0, func() { tc.submit(1, 30) })
	resubmit := func(replica int) func() {
		return func() {
			for id := uint64(1); id <= 30; id++ {
				tx := tc.txFor(id)
				tc.bc.Replicas[replica].SubmitLocal(tx)
			}
		}
	}
	tc.engine.Schedule(5*time.Millisecond, resubmit(2))
	tc.engine.Schedule(10*time.Millisecond, resubmit(3))
	tc.engine.Schedule(time.Second, resubmit(0))
	tc.run(60 * time.Second)
	for i, r := range tc.bc.Replicas {
		if got := r.Executed(); got != 30 {
			t.Fatalf("replica %d executed %d txs, want exactly 30 despite the retry storm", i, got)
		}
		for id := uint64(1); id <= 30; id++ {
			ok, executed := r.ExecutedOK(id)
			if !executed || !ok {
				t.Fatalf("replica %d reply cache for tx %d = (ok=%v, executed=%v), want both true", i, id, ok, executed)
			}
		}
	}
	tc.requireAgreement(t, 30)
}

// TestRestartWithPartiallyJournaledPipelineWindow is the crash-restart
// scenario for the pipelined path: the WAL holds a window of decided
// blocks past the execution watermark (journaled write-ahead, not yet
// executed) when the process dies. Boot recovery must resume replay at
// exactly ExecutedThrough+1, reject any gap above it, and land with the
// whole journaled window executed.
func TestRestartWithPartiallyJournaledPipelineWindow(t *testing.T) {
	tc := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 1
		o.Window = 16
		o.CheckpointEvery = 4
		o.Timing.BatchEarlyCut = testEarlyCut
	})
	r := tc.bc.Replicas[0]
	mem := storage.NewMemory()
	r.durable = mem
	tc.engine.Schedule(0, func() { tc.submit(0, 20) })
	tc.run(20 * time.Second)
	if r.stableSnapSeq == 0 {
		t.Fatal("no stable checkpoint reached; cannot exercise durable recovery")
	}

	// The crash cuts in with a partially journaled pipeline window: three
	// more sequences decided and WAL-appended, none executed.
	base := r.executedThrough
	for i := uint64(1); i <= 3; i++ {
		if !r.appendDecided(&entry{seq: base + i, block: replayBlock(9200 + i)}) {
			t.Fatalf("appendDecided of pipeline seq %d failed", base+i)
		}
	}

	snap, tail, err := mem.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil {
		t.Fatal("no snapshot recovered")
	}

	tc2 := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 1
		o.Window = 16
		o.CheckpointEvery = 4
		o.Timing.BatchEarlyCut = testEarlyCut
	})
	r2 := tc2.bc.Replicas[0]
	if _, err := r2.RestoreDurableSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r2.executedThrough != snap.ExecutedThrough {
		t.Fatalf("restored executedThrough = %d, want the snapshot watermark %d", r2.executedThrough, snap.ExecutedThrough)
	}

	// A record that skips ahead of the watermark is a lost-WAL gap and
	// must be rejected, not absorbed.
	if err := r2.ReplayDecided(base+5, replayBlock(9999)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("replay with a gap returned %v, want ErrCorrupt", err)
	}
	if r2.executedThrough != snap.ExecutedThrough {
		t.Fatalf("rejected gap advanced the watermark to %d", r2.executedThrough)
	}

	// The real tail replays in order: records at or below the watermark
	// are skipped, then replay resumes at exactly ExecutedThrough+1 and
	// walks the journaled pipeline window to its end.
	for _, rec := range tail {
		if rec.Kind != storage.KindBlock {
			continue
		}
		if err := r2.ReplayDecided(rec.Seq, rec.Block); err != nil {
			t.Fatalf("replay of WAL tail seq %d: %v", rec.Seq, err)
		}
	}
	if r2.executedThrough != base+3 {
		t.Fatalf("executedThrough after tail replay = %d, want %d (the full journaled pipeline window)", r2.executedThrough, base+3)
	}
}
