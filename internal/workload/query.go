package workload

import (
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
)

// QueryStats aggregates read-driver results.
type QueryStats struct {
	// Issued counts sweeps started; Done those that completed; Failed
	// those that errored out.
	Issued int
	Done   int
	Failed int
	// Rows counts merged rows streamed by scan sweeps; Totals records the
	// conserved total of each conservation sweep.
	Rows   int
	Totals []int64
	// Violations counts conservation sweeps whose total differed from the
	// driver's Expect (0 means every height-pinned cut balanced).
	Violations int

	lats []time.Duration
}

// record accounts one completed sweep's virtual-time latency.
func (s *QueryStats) record(lat time.Duration) { s.lats = append(s.lats, lat) }

// PercentileLatency returns the p-th percentile sweep latency (p in
// [0,100]); 0 if nothing completed.
func (s *QueryStats) PercentileLatency(p float64) time.Duration {
	if len(s.lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// QueryDriver issues closed-loop scatter-gather reads through a client's
// query gateway while the write drivers run: each completed sweep
// immediately starts the next, keeping Outstanding sweeps in flight. The
// reads go through the height-pinned MVCC views, so none of them takes a
// 2PL lock or enters consensus — the experiment tables make the
// interference claim measurable.
type QueryDriver struct {
	Sys *core.System
	// Client selects which client gateway carries the queries.
	Client int
	// Mode selects the read shape: "conserve" runs the full
	// balance-conservation sweep (checking + savings sums and staged-2PC
	// residue resolution at one pinned cut); "scan" streams the checking
	// rows of every shard in global key order, page by page.
	Mode string
	// PageLimit bounds entries per chunk for scan mode (0 = server default).
	PageLimit int
	// Outstanding is the number of sweeps kept in flight (default 1).
	Outstanding int
	// Expect, when nonzero, is the conserved total every conservation
	// sweep must report; mismatches count as Stats.Violations.
	Expect int64

	Stats  QueryStats
	stopAt sim.Time
}

// Start launches the driver for the given duration (measured from the
// current virtual time).
func (d *QueryDriver) Start(dur time.Duration) {
	d.stopAt = d.Sys.Engine.Now().Add(dur)
	n := d.Outstanding
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		d.issue()
	}
}

func (d *QueryDriver) issue() {
	now := d.Sys.Engine.Now()
	if now >= d.stopAt {
		return
	}
	d.Stats.Issued++
	gw := d.Sys.QueryGateway(d.Client)
	targets := d.Sys.QueryTargets()
	start := now
	finish := func(failed bool) {
		if failed {
			d.Stats.Failed++
		} else {
			d.Stats.Done++
			d.Stats.record(time.Duration(d.Sys.Engine.Now() - start))
		}
		d.issue()
	}
	switch d.Mode {
	case "scan":
		rows := 0
		err := gw.Start(&query.Query{
			Targets: targets,
			Spec: query.Spec{Kind: query.KindScan,
				Start: "c_", End: chain.PrefixEnd("c_"), Proj: query.ProjKV},
			PageLimit: d.PageLimit,
			OnRow:     func(query.Row) { rows++ },
			OnDone: func(_ *query.Result, err error) {
				// Count rows only for completed sweeps: an aborted scan (pin
				// pruned mid-stream) would otherwise skew rows/sweep.
				if err == nil {
					d.Stats.Rows += rows
				}
				finish(err != nil)
			},
		})
		if err != nil {
			finish(true)
		}
	default: // conserve
		query.Conservation(gw, targets, func(res *query.ConservationResult, err error) {
			if err == nil {
				d.Stats.Totals = append(d.Stats.Totals, res.Total)
				if d.Expect != 0 && res.Total != d.Expect {
					d.Stats.Violations++
				}
			}
			finish(err != nil)
		})
	}
}
