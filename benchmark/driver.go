package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// target is what the generator drives: the live client in a run, a fake
// in the unit tests. done runs on the target's own goroutine and must
// not block.
type target interface {
	submit(o op, seq int, done func(committed bool)) error
}

const (
	statePending uint32 = iota
	stateCommitted
	stateAborted
	stateSubmitErr
)

// rec is the client-side record of one op. Offsets are from the phase
// start. done is written before state, and state is the only field the
// completion callback and the generator share, so a non-pending state
// makes done visible.
type rec struct {
	due   time.Duration // when the op was scheduled (open loop) or sent (closed loop)
	sent  time.Duration
	done  time.Duration
	state atomic.Uint32
}

// phaseSpec is one load phase: an open loop sends on a schedule whatever
// the program does; a closed loop keeps a fixed number of ops in flight.
type phaseSpec struct {
	name    string
	open    bool
	rate    float64 // open loop: offered tx/s
	window  int     // closed loop: ops in flight
	warm    time.Duration
	measure time.Duration
}

func (p phaseSpec) total() time.Duration { return p.warm + p.measure }

// opBudget is how many generated ops the phase may consume: exactly its
// schedule in an open loop, a generous ceiling in a closed one.
func (p phaseSpec) opBudget() int {
	if p.open {
		return int(p.rate * p.total().Seconds())
	}
	const closedCeiling = 15000 // tx/s; ~2.7x this host's single_write rate
	return int(closedCeiling * p.total().Seconds())
}

// dueAt is the open-loop schedule: op i is due i/rate after the start.
func (p phaseSpec) dueAt(i int) time.Duration {
	return time.Duration(float64(i) / p.rate * float64(time.Second))
}

type phaseResult struct {
	spec    phaseSpec
	ops     []op
	recs    []rec // recs[i] belongs to ops[i]; only the first issued are meaningful
	issued  int
	start   time.Time
	measTo  time.Duration // end of the measured window (cut short if a closed loop ran out of ops)
	lateMax time.Duration // worst generator lateness (sent - due)
	backlog int           // open loop: ops due but undecided when the phase ended
}

// runPhase drives ops at t for one phase from the calling goroutine (the
// one generator goroutine). atMeasure runs, on its own goroutine so the
// schedule is not disturbed, when the warm-up ends.
func runPhase(t target, spec phaseSpec, ops []op, seqBase int, atMeasure func()) *phaseResult {
	res := &phaseResult{spec: spec, ops: ops, recs: make([]rec, len(ops)), start: time.Now()}
	edge := time.AfterFunc(spec.warm, atMeasure)
	defer func() {
		if edge.Stop() {
			atMeasure() // the phase ended inside its warm-up; the caller still waits for the reading
		}
	}()

	send := func(i int, due time.Duration, done func()) {
		r := &res.recs[i]
		r.due = due
		r.sent = time.Since(res.start)
		if late := r.sent - due; late > res.lateMax {
			res.lateMax = late
		}
		err := t.submit(ops[i], seqBase+i, func(committed bool) {
			r.done = time.Since(res.start)
			if committed {
				r.state.Store(stateCommitted)
			} else {
				r.state.Store(stateAborted)
			}
			done()
		})
		if err != nil {
			r.done = r.sent
			r.state.Store(stateSubmitErr)
			done()
		}
		res.issued = i + 1
	}

	total := spec.total()
	res.measTo = total
	if spec.open {
		for i := range ops {
			due := spec.dueAt(i)
			if due >= total {
				break
			}
			if wait := due - time.Since(res.start); wait > 0 {
				time.Sleep(wait)
			}
			send(i, due, func() {})
		}
		if wait := total - time.Since(res.start); wait > 0 {
			time.Sleep(wait)
		}
		for i := 0; i < res.issued; i++ {
			if res.recs[i].state.Load() == statePending {
				res.backlog++
			}
		}
		return res
	}

	// Closed loop: a slot frees when an op completes. The channel holds
	// one token per op in flight, so completions never block.
	slots := make(chan struct{}, spec.window)
	for i := 0; i < spec.window; i++ {
		slots <- struct{}{}
	}
	free := func() { slots <- struct{}{} }
	end := time.NewTimer(total)
	defer end.Stop()
	for i := range ops {
		select {
		case <-slots:
		case <-end.C:
			return res
		}
		if now := time.Since(res.start); now >= total {
			return res
		}
		send(i, time.Since(res.start), free)
	}
	// Out of generated ops before the phase ended: measure what ran.
	if now := time.Since(res.start); now < total {
		res.measTo = now
	}
	return res
}

// drain waits until every issued op has an outcome or the last one's
// deadline has passed.
func (res *phaseResult) drain() {
	if res.issued == 0 {
		return
	}
	deadline := res.start.Add(res.recs[res.issued-1].due + opDeadline)
	for i := 0; i < res.issued; i++ {
		for res.recs[i].state.Load() == statePending {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// phaseStats is what a phase's records reduce to.
type phaseStats struct {
	attempted int // every op issued, warm-up included
	failed    int // no correct outcome by the deadline, or a submit error
	committed int // committed with done inside the measured window
	// committedAll counts every committed op of the phase, warm-up included.
	committedAll int
	decided      int // committed or aborted, due inside the measured window
	aborted      int // of decided
	window       time.Duration
	latencies    []float64 // ms, due -> outcome, decided ops due inside the measured window, ascending
}

func (res *phaseResult) stats() phaseStats {
	st := phaseStats{attempted: res.issued, window: res.measTo - res.spec.warm}
	for i := 0; i < res.issued; i++ {
		r := &res.recs[i]
		state := r.state.Load()
		if state == statePending || state == stateSubmitErr || r.done-r.due > opDeadline {
			st.failed++
			continue
		}
		if state == stateCommitted {
			st.committedAll++
			if r.done >= res.spec.warm && r.done < res.measTo {
				st.committed++
			}
		}
		if r.due >= res.spec.warm && r.due < res.measTo {
			st.decided++
			if state == stateAborted {
				st.aborted++
			}
			st.latencies = append(st.latencies, float64(r.done-r.due)/float64(time.Millisecond))
		}
	}
	sort.Float64s(st.latencies)
	return st
}
