package storage

import "repro/internal/obs"

// stallThreshold classifies an fsync as a stall: device-level hiccups
// (queue saturation, FTL garbage collection) show up as syncs orders of
// magnitude above the norm, and the stall counter makes them visible
// without staring at the latency histogram's tail.
const stallThreshold = 100e6 // ns

// Metrics is the durable store's observability sink. All methods are
// nil-receiver-safe, so an uninstrumented Disk (the default, and every
// simulator run) pays only a nil check.
type Metrics struct {
	appendLatency *obs.Histogram
	fsyncLatency  *obs.Histogram
	fsyncs        *obs.Counter
	stalls        *obs.Counter
	segmentRolls  *obs.Counter
	snapshotSave  *obs.Histogram
	snapshotBytes *obs.Histogram
}

// NewMetrics registers the storage metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		appendLatency: reg.Histogram("storage_wal_append_latency"),
		fsyncLatency:  reg.Histogram("storage_wal_fsync_latency"),
		fsyncs:        reg.Counter("storage_wal_fsync_total"),
		stalls:        reg.Counter("storage_wal_stall_total"),
		segmentRolls:  reg.Counter("storage_wal_segment_rolls_total"),
		snapshotSave:  reg.Histogram("storage_snapshot_save_latency"),
		snapshotBytes: reg.SizeHistogram("storage_snapshot_bytes"),
	}
}

func (m *Metrics) observeAppend(ns int64) {
	if m == nil {
		return
	}
	m.appendLatency.Observe(ns)
}

func (m *Metrics) observeFsync(ns int64) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	m.fsyncLatency.Observe(ns)
	if ns >= stallThreshold {
		m.stalls.Inc()
	}
}

func (m *Metrics) observeRoll() {
	if m == nil {
		return
	}
	m.segmentRolls.Inc()
}

func (m *Metrics) observeSnapshot(ns int64) {
	if m == nil {
		return
	}
	m.snapshotSave.Observe(ns)
}

func (m *Metrics) observeSnapshotBytes(n int) {
	if m == nil {
		return
	}
	m.snapshotBytes.ObserveSize(int64(n))
}
