package pbft

import "slices"

// execSet is a replica's executed-transaction dedup set together with each
// id's local result. Beside the membership map it keeps append-only logs
// in execution order: every id, and the locally executed ids that
// succeeded and that failed. Execution order is deterministic (sequence
// order, then block order), so a stable checkpoint captures the set as
// prefixes of those logs — O(1), with no copy, no sort and no map walk —
// and the captures are still run-independent.
type execSet struct {
	res  map[uint64]execResult
	logs execLogs
}

// execResult is what a replica knows about an executed id's outcome.
type execResult uint8

const (
	// resultUnknown marks an id learned through a peer snapshot: this
	// replica never observed its result.
	resultUnknown execResult = iota
	resultOK
	resultFail
)

// execLogs is a capture of an execSet: all ids, the succeeded ones and the
// failed ones, each in execution order. Captured slices have cap == len,
// and the set only ever appends past them, so a capture stays immutable
// while execution continues.
type execLogs struct {
	ids, ok, fail []uint64
}

func newExecSet() execSet { return execSet{res: make(map[uint64]execResult)} }

// has reports whether id has executed (or was learned as executed).
func (s *execSet) has(id uint64) bool {
	_, in := s.res[id]
	return in
}

// result reports id's locally observed outcome; known is false for ids
// never executed and for ids learned without a result.
func (s *execSet) result(id uint64) (ok, known bool) {
	r := s.res[id]
	return r == resultOK, r != resultUnknown
}

func (s *execSet) len() int { return len(s.res) }

// add records a transaction this replica executed itself.
func (s *execSet) add(id uint64, ok bool) {
	s.logs.ids = append(s.logs.ids, id)
	if ok {
		s.res[id] = resultOK
		s.logs.ok = append(s.logs.ok, id)
	} else {
		s.res[id] = resultFail
		s.logs.fail = append(s.logs.fail, id)
	}
}

// capture returns the logs as they stand now.
func (s *execSet) capture() execLogs {
	l := s.logs
	return execLogs{ids: slices.Clip(l.ids), ok: slices.Clip(l.ok), fail: slices.Clip(l.fail)}
}

// restore replaces the set with a persisted capture (boot recovery).
func (s *execSet) restore(ids, ok, fail []uint64) {
	s.res = make(map[uint64]execResult, len(ids))
	for _, id := range ids {
		s.res[id] = resultUnknown
	}
	for _, id := range ok {
		s.res[id] = resultOK
	}
	for _, id := range fail {
		s.res[id] = resultFail
	}
	s.logs = execLogs{ids: slices.Clip(ids), ok: slices.Clip(ok), fail: slices.Clip(fail)}
}

// install replaces the set with a peer's executed ids (state sync). An id
// this replica executed itself keeps its observed result; the others stay
// unknown. Duplicates in the peer's list are dropped.
func (s *execSet) install(ids []uint64) {
	old := s.res
	s.res = make(map[uint64]execResult, len(ids))
	s.logs = execLogs{ids: make([]uint64, 0, len(ids))}
	for _, id := range ids {
		if _, dup := s.res[id]; dup {
			continue
		}
		r := old[id]
		s.res[id] = r
		s.logs.ids = append(s.logs.ids, id)
		switch r {
		case resultOK:
			s.logs.ok = append(s.logs.ok, id)
		case resultFail:
			s.logs.fail = append(s.logs.fail, id)
		}
	}
}
