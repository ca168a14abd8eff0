package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeTarget completes every op after delay, on another goroutine, and
// aborts one op in ten. It can stall the generator once, the way a busy
// client loop does.
type fakeTarget struct {
	delay       time.Duration
	stallAt     int
	stall       time.Duration
	never       int // this op never completes
	inFlight    atomic.Int32
	maxInFlight atomic.Int32
}

func (f *fakeTarget) submit(_ op, seq int, done func(bool)) error {
	if seq == f.stallAt {
		time.Sleep(f.stall)
	}
	n := f.inFlight.Add(1)
	for {
		cur := f.maxInFlight.Load()
		if n <= cur || f.maxInFlight.CompareAndSwap(cur, n) {
			break
		}
	}
	if seq == f.never {
		return nil
	}
	time.AfterFunc(f.delay, func() {
		f.inFlight.Add(-1)
		done(seq%10 != 0)
	})
	return nil
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	spec := phaseSpec{name: "L", open: true, rate: 1000, warm: 50 * time.Millisecond, measure: 250 * time.Millisecond}
	if got := spec.opBudget(); got != 300 {
		t.Fatalf("op budget = %d, want 300", got)
	}
	if got := spec.dueAt(150); got != 150*time.Millisecond {
		t.Fatalf("op 150 due at %v, want 150ms", got)
	}
	const stall = 60 * time.Millisecond
	tgt := &fakeTarget{delay: 2 * time.Millisecond, stallAt: 100, stall: stall, never: -1}
	measured := make(chan struct{})
	res := runPhase(tgt, spec, make([]op, spec.opBudget()), 0, func() { close(measured) })
	<-measured
	res.drain()
	if res.issued != 300 {
		t.Fatalf("issued %d ops, want the whole schedule of 300", res.issued)
	}
	for i := 0; i < res.issued; i++ {
		if res.recs[i].due != spec.dueAt(i) {
			t.Fatalf("op %d recorded due %v, want %v", i, res.recs[i].due, spec.dueAt(i))
		}
	}
	// The stall made the generator late, and the ops queued behind it are
	// charged the wait: latency runs from when each was due, not sent.
	if res.lateMax < stall-5*time.Millisecond {
		t.Errorf("worst lateness %v, want about %v", res.lateMax, stall)
	}
	behind := &res.recs[130] // due 30 ms into a 60 ms stall
	if got := behind.done - behind.due; got < 25*time.Millisecond {
		t.Errorf("op queued behind the stall: due->done %v, want at least the ~30 ms it waited", got)
	}
	if got := behind.done - behind.sent; got > 20*time.Millisecond {
		t.Errorf("op queued behind the stall: sent->done %v, the service time alone", got)
	}
	st := res.stats()
	if st.attempted != 300 || st.failed != 0 {
		t.Errorf("attempted %d failed %d, want 300 and 0", st.attempted, st.failed)
	}
	if st.decided != 250 {
		t.Errorf("%d ops due in the measured window, want 250 (warm-up excluded)", st.decided)
	}
	if st.aborted != 25 {
		t.Errorf("%d aborts in the measured window, want one in ten of 250", st.aborted)
	}
	if len(st.latencies) != st.decided || st.latencies[0] > st.latencies[len(st.latencies)-1] {
		t.Errorf("latencies: %d samples, ascending? first %v last %v", len(st.latencies), st.latencies[0], st.latencies[len(st.latencies)-1])
	}
	if res.backlog != 0 && res.backlog > 5 {
		t.Errorf("backlog %d at phase end with a 2 ms service time", res.backlog)
	}
}

func TestOpenLoopCountsWhatNeverCompletes(t *testing.T) {
	spec := phaseSpec{name: "L", open: true, rate: 1000, warm: 10 * time.Millisecond, measure: 40 * time.Millisecond}
	tgt := &fakeTarget{delay: time.Millisecond, stallAt: -1, never: 20}
	res := runPhase(tgt, spec, make([]op, spec.opBudget()), 0, func() {})
	if res.backlog < 1 {
		t.Errorf("backlog %d, want the op that never completed", res.backlog)
	}
	time.Sleep(50 * time.Millisecond) // let the last ops finish; drain would wait out the lost op's 10 s deadline
	st := res.stats()
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1: an op without an outcome is a failed op", st.failed)
	}
	if st.decided != 39 {
		t.Errorf("decided = %d, want 39 of the 40 due in the window", st.decided)
	}
}

func TestClosedLoopKeepsTheWindow(t *testing.T) {
	spec := phaseSpec{name: "C", window: 8, warm: 20 * time.Millisecond, measure: 100 * time.Millisecond}
	tgt := &fakeTarget{delay: 2 * time.Millisecond, stallAt: -1, never: -1}
	res := runPhase(tgt, spec, make([]op, 100000), 0, func() {})
	res.drain()
	if got := tgt.maxInFlight.Load(); got != 8 {
		t.Errorf("most ops in flight = %d, want the window of 8", got)
	}
	st := res.stats()
	// 8 in flight at 2 ms each is about 4000/s: some hundreds in 100 ms.
	if st.committed < 100 || st.committed > 450 {
		t.Errorf("committed %d in the measured window, want a few hundred", st.committed)
	}
	if st.window != spec.measure {
		t.Errorf("measured window %v, want %v", st.window, spec.measure)
	}
	if res.issued <= st.decided {
		t.Errorf("issued %d, decided in window %d: warm-up ops must be issued but not measured", res.issued, st.decided)
	}
}

func TestClosedLoopThatRunsOutOfOpsMeasuresWhatRan(t *testing.T) {
	spec := phaseSpec{name: "C", window: 4, warm: 5 * time.Millisecond, measure: 500 * time.Millisecond}
	tgt := &fakeTarget{delay: time.Millisecond, stallAt: -1, never: -1}
	res := runPhase(tgt, spec, make([]op, 200), 0, func() {})
	res.drain()
	if res.issued != 200 {
		t.Fatalf("issued %d, want all 200 ops", res.issued)
	}
	if res.measTo >= spec.total() {
		t.Errorf("measured window ends at %v, want it cut short of %v", res.measTo, spec.total())
	}
}
