package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/chaincode"
)

// value is one measured number. N is the sample count behind a timing
// (0 where the metric is not a sample statistic).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runRecord is one workload run: what results.json stores and what the
// last line of the output is cut from.
type runRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []checkResult    `json:"checks"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// setupRepeats is how many times an untraced run sets the cluster up;
// setup_s is their median, and the last cluster is the one measured.
const setupRepeats = 3

// measuredWindow is the pair of counter readings bracketing a phase's
// measured window, with the phase's client-side statistics.
type measuredWindow struct {
	from, to counters
	res      *phaseResult
	st       phaseStats
}

// runData is everything one run measured, before it is reduced to
// metrics and checks.
type runData struct {
	w            workload
	wins         []measuredWindow // one per phase: L, then C where the workload has one
	reader       *readerStats     // read_beside_write only
	base, end    counters         // after set-up, and after the cluster settled
	state        clusterState
	setups       []float64
	setupDropped uint64
}

// lat is the window latency metrics come from (phase L); thr the one
// per-committed-tx figures come from (phase C, or L where there is no C).
func (d *runData) lat() measuredWindow { return d.wins[0] }
func (d *runData) thr() measuredWindow { return d.wins[len(d.wins)-1] }

func runWorkload(w workload, seed int64, seconds int, tr *tracer) (*runRecord, error) {
	measure := time.Duration(seconds) * time.Second
	specs := []phaseSpec{{name: "L", open: true, rate: w.rate, warm: warmup,
		measure: time.Duration(w.shareL * float64(measure))}}
	if w.shareL < 1 {
		specs = append(specs, phaseSpec{name: "C", window: window, warm: warmup, measure: measure - specs[0].measure})
	}
	budget := 0
	for _, s := range specs {
		budget += s.opBudget()
	}
	ops := generate(w, seed, budget)
	d := &runData{w: w}

	// Set-up, several times over: work a later change moves into set-up
	// must show, and one set-up is too noisy a sample to hold a bound.
	repeats := setupRepeats
	if tr != nil {
		repeats = 1 // the traced run reports no set-up time
	}
	var c *cluster
	for i := 0; i < repeats; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
			// A discarded cluster's heap is the harness's doing, not the
			// program's: hand it back before the next one starts, so peak
			// RSS and GC pacing are those of one cluster.
			c = nil
			debug.FreeOSMemory()
		}
		var s setupResult
		var err error
		if c, s, err = setup(w, tr.wrap()); err != nil {
			return nil, err
		}
		d.setups = append(d.setups, s.seconds)
		d.setupDropped += s.dropped
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()

	tgt := &liveTarget{w: w, client: c.client, tag: c.client.RunTag(), onIDs: tr.onIDs()}
	d.base = c.read()
	tr.begin(c)
	next := 0
	for _, spec := range specs {
		n := spec.opBudget()
		var from counters
		gotFrom := make(chan struct{})
		var stopReader chan struct{}
		var readerDone chan *readerStats
		if w.reader {
			stopReader, readerDone = make(chan struct{}), make(chan *readerStats, 1)
			go func() { readerDone <- runReader(c.client, spec.warm, stopReader) }()
		}
		res := runPhase(tgt, spec, ops[next:next+n], next, func() { from = c.read(); close(gotFrom) })
		to := c.read()
		if w.reader {
			close(stopReader)
			d.reader = <-readerDone
		}
		<-gotFrom
		res.drain()
		tr.phase(spec, res, next)
		d.wins = append(d.wins, measuredWindow{from: from, to: to, res: res, st: res.stats()})
		next += n
	}
	tr.end()
	d.state = settle(c)
	d.end = c.read()

	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Trace: tr != nil, Metrics: map[string]value{}}
	for _, m := range d.wins {
		rec.Attempted += m.st.attempted
		rec.Failed += m.st.failed
	}
	if d.reader != nil {
		rec.Attempted += d.reader.attempted()
		rec.Failed += d.reader.failed()
		rec.Notes = d.reader.notes
	}
	d.metrics(rec)
	tr.metrics(rec, d.end.obs.Counters["pbft_executed_batches_total"]-d.base.obs.Counters["pbft_executed_batches_total"], d.reader)
	d.checks(rec, c)
	stopped = true
	if err := c.stop(); err != nil {
		return nil, err
	}
	return rec, nil
}

// metrics reduces the run to the end-to-end metrics and to every
// per-layer metric that comes from counters or the client's own records.
func (d *runData) metrics(rec *runRecord) {
	lat, thr, base, end := d.lat(), d.thr(), d.base, d.end
	committed := float64(thr.st.committed)
	put := func(name string, v float64, n int) {
		def, ok := defOf(name)
		if !ok {
			panic("metric " + name + " is not in the table")
		}
		rec.Metrics[name] = value{Value: v, Unit: def.unit, N: n}
	}

	put("setup_s", median(d.setups), len(d.setups))
	put("goodput_per_s", per(committed, thr.st.window.Seconds()), thr.st.committed)
	p50 := percentile(lat.st.latencies, 0.50)
	put("p50_ms", p50, len(lat.st.latencies))
	put("cpu_ms_per_ctx", per(float64(thr.to.cpu-thr.from.cpu)/float64(time.Millisecond), committed), thr.st.committed)
	put("rss_peak_mb", peakRSSMiB(), 0)

	put("transport.frames_per_ctx", per(float64(thr.to.net.SentFrames-thr.from.net.SentFrames), committed), 0)
	put("transport.bytes_per_ctx", per(float64(thr.to.net.SentBytes-thr.from.net.SentBytes), committed), 0)
	put("transport.dropped", float64(end.net.Dropped-base.net.Dropped), 0)
	put("core.inbox_dropped", float64(end.inbox-base.inbox), 0)

	// Stage medians come from phase L's window, so they decompose p50_ms.
	stageP50 := func(metric, hist string, div float64) float64 {
		h := histSince(lat.from, lat.to, hist)
		v := h.Quantile(0.5) / div // duration histograms are in microseconds
		put(metric, v, int(h.Count))
		return v
	}
	commitP50 := stageP50("pbft.commit_p50_ms", "pbft_commit_latency", 1000)
	execP50 := stageP50("pbft.exec_p50_ms", "pbft_exec_latency", 1000)
	appendP50 := stageP50("storage.append_p50_us", "storage_wal_append_latency", 1)
	stageP50("storage.fsync_p50_ms", "storage_wal_fsync_latency", 1000)
	stageP50("txn.prepare_wait_p50_ms", "txn_2pc_prepare_wait", 1000)
	stageP50("txn.lock_hold_p50_ms", "txn_2pc_lock_hold", 1000)
	stageP50("txn.decide_wait_p50_ms", "txn_2pc_decide_wait", 1000)
	stageP50("txn.commit_p50_ms", "txn_2pc_commit_latency", 1000)
	put("core.stage_gap_ms", p50-(commitP50+appendP50/1000+execP50), 0)

	// Counts per committed transaction come from phase C's window.
	thrCtr := func(name string) float64 { return ctrSince(thr.from, thr.to, name) }
	batches := histSince(thr.from, thr.to, "pbft_batch_txs")
	put("pbft.batch_txs_mean", per(float64(batches.Sum), float64(batches.Count)), int(batches.Count))
	fast := thrCtr("pbft_batch_cut_fastpath_total")
	put("pbft.cut_fastpath_share", per(fast, fast+thrCtr("pbft_batch_cut_timeout_total")+thrCtr("pbft_batch_cut_size_total")), 0)
	put("pbft.pipeline_peak", float64(end.obs.Gauges["pbft_pipeline_occupancy_peak"]), 0)
	put("pbft.view_changes", ctrSince(base, end, "pbft_view_changes_total"), 0)
	parallel := thrCtr("pbft_parexec_parallel_total")
	put("pbft.parexec_parallel_share", per(parallel, parallel+thrCtr("pbft_parexec_serial_total")), 0)
	put("pbft.parexec_fallback_share", per(thrCtr("pbft_parexec_conflict_fallback_total"), parallel), 0)

	put("storage.wal_bytes_per_ctx", per(float64(thr.to.disk-thr.from.disk), committed), 0)
	put("storage.fsyncs_per_ctx", per(thrCtr("storage_wal_fsync_total"), committed), 0)
	put("storage.stalls", ctrSince(base, end, "storage_wal_stall_total"), 0)

	var decided, aborted int
	for _, m := range d.wins {
		decided += m.st.decided
		aborted += m.st.aborted
	}
	put("txn.retries_per_ctx", per(thrCtr("txn_2pc_retry_prepare_total")+thrCtr("txn_2pc_retry_vote_total"), committed), 0)
	put("txn.abort_share", per(float64(aborted), float64(decided)), decided)
	put("txn.dangling_locks_end", float64(d.state.dangling), 0)

	put("proc.allocs_per_ctx", per(float64(thr.to.mallocs-thr.from.mallocs), committed), 0)
	put("proc.alloc_kb_per_ctx", per(float64(thr.to.alloc-thr.from.alloc)/1024, committed), 0)
	put("proc.gc_pause_ms", float64(end.gcPause-base.gcPause)/float64(time.Millisecond), 0)

	for _, tail := range []struct {
		name string
		p    float64
	}{{"client.p95_ms", 0.95}, {"client.p99_ms", 0.99}} {
		// A tail percentile is reported only with enough samples beyond it.
		put(tail.name, missing, len(lat.st.latencies))
		if supported(len(lat.st.latencies), tail.p) {
			put(tail.name, percentile(lat.st.latencies, tail.p), len(lat.st.latencies))
		}
	}
	put("client.closed_p50_ms", missing, 0)
	if !thr.res.spec.open {
		put("client.closed_p50_ms", percentile(thr.st.latencies, 0.50), len(thr.st.latencies))
	}
	put("client.gen_late_max_ms", float64(lat.res.lateMax)/float64(time.Millisecond), 0)
	put("client.backlog_end", float64(lat.res.backlog), 0)
	put("client.fail_share", per(float64(rec.Failed), float64(rec.Attempted)), rec.Attempted)
	put("client.setup_dropped", float64(d.setupDropped), 0)

	put("query.scan_rows_per_s", 0, 0)
	put("query.sweep_p50_ms", 0, 0)
	put("query.pruned_share", 0, 0)
	put("query.sweep_wrong_total", 0, 0)
	if r := d.reader; r != nil {
		sort.Float64s(r.sweeps)
		put("query.scan_rows_per_s", per(float64(r.scanRows), r.rounds.Seconds()), r.scans)
		put("query.sweep_p50_ms", percentile(r.sweeps, 0.50), len(r.sweeps))
		put("query.pruned_share", per(float64(r.scanPruned), float64(r.scanTries)), r.scanTries)
		put("query.sweep_wrong_total", float64(r.wrongTotals), 0)
	}
}

// checks judges the drained cluster and the run's own accounting; any
// failure makes the run incorrect.
func (d *runData) checks(rec *runRecord, c *cluster) {
	w, st, backlog := d.w, d.state, d.lat().res.backlog
	check := func(name string, ok bool, format string, args ...any) {
		cr := checkResult{Name: name, OK: ok}
		if !ok {
			cr.Detail = fmt.Sprintf(format, args...)
		}
		rec.Checks = append(rec.Checks, cr)
	}
	check("no_failed_ops", rec.Failed == 0, "%d of %d operations had no correct outcome by their deadline", rec.Failed, rec.Attempted)
	check("not_overloaded", float64(backlog) <= w.rate, "open-loop backlog %d at phase end exceeds one second of %v tx/s", backlog, w.rate)
	check("replicas_agree", st.disagree == "", "%s", st.disagree)
	check("no_lock_or_stage_residue", st.locks == 0 && st.stages == 0, "%d L_ and %d S_ keys left", st.locks, st.stages)
	check("no_dangling_locks", st.dangling == 0, "%d prepared transactions never finished", st.dangling)
	viewChanges := ctrSince(d.base, d.end, "pbft_view_changes_total")
	check("no_view_changes", viewChanges == 0, "%v view changes", viewChanges)
	if w.accounts {
		if res, err := c.client.Conservation(readRetries, opDeadline); err != nil {
			check("conservation", false, "%v", err)
		} else {
			check("conservation", res.Total == population*balance && res.Accounts == population && len(res.Residues) == 0,
				"total %d over %d accounts with %d residues at pins %v, want %d over %d",
				res.Total, res.Accounts, len(res.Residues), res.Pins, population*balance, population)
		}
	}
	wantRows := ackedPutKeys(w, d.wins)
	check("put_rows", st.kRows == wantRows, "%d k_ rows, want %d distinct acknowledged keys", st.kRows, wantRows)

	// Layer isolation: each of txn, query and the single-committee write
	// path does the work in one workload and none in another. Every
	// reference replica counts each 2PC decision once.
	commits := ctrSince(d.base, d.end, "txn_2pc_commit_total") / replicasPerCommittee
	aborts := ctrSince(d.base, d.end, "txn_2pc_abort_total") / replicasPerCommittee
	switch w.name {
	case "single_write":
		check("isolation_no_2pc", commits == 0 && aborts == 0, "%v commits and %v aborts decided by 2PC on a single-shard workload", commits, aborts)
	case "cross_uniform", "read_beside_write":
		acked := 0
		for _, m := range d.wins {
			acked += m.st.committedAll
		}
		check("isolation_2pc_equals_cross", commits == float64(acked), "%v 2PC commits, %d committed cross-shard ops", commits, acked)
	}
	if r := d.reader; r != nil {
		check("isolation_reads_served", r.scanRows > 0 && len(r.sweeps) > 0, "%d rows scanned, %d sweeps", r.scanRows, len(r.sweeps))
	}
	rec.Correct = true
	for _, cr := range rec.Checks {
		rec.Correct = rec.Correct && cr.OK
	}
}

func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// ackedPutKeys counts the distinct keys with an acknowledged put, plus
// the seeded ones on the kvstore workload.
func ackedPutKeys(w workload, wins []measuredWindow) int {
	seen := make(map[int32]bool)
	if !w.accounts {
		return population // every key was seeded; puts only overwrite
	}
	for _, m := range wins {
		for i := 0; i < m.res.issued; i++ {
			if o := m.res.ops[i]; o.kind == opPut && m.res.recs[i].state.Load() == stateCommitted {
				seen[o.a] = true
			}
		}
	}
	return len(seen)
}

// clusterState is what the replicas hold once the run has drained.
type clusterState struct {
	disagree string // first replica disagreement, "" when every shard's replicas match
	locks    int    // L_ keys, summed over shards (first replica)
	stages   int    // S_ keys
	kRows    int    // k_ rows
	dangling int    // prepared-but-unfinished transactions, summed over shard replicas
}

func (s clusterState) quiet() bool {
	return s.disagree == "" && s.locks == 0 && s.stages == 0 && s.dangling == 0
}

// settle polls until every shard's replicas agree and hold no 2PL
// residue: replicas lag the outcome the client saw, because the decide
// still has to execute. It gives up after the op deadline and returns
// the last state seen, which the checks then fail.
func settle(c *cluster) clusterState {
	deadline := time.Now().Add(opDeadline)
	for {
		st := readState(c)
		if st.quiet() || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readState(c *cluster) clusterState {
	var st clusterState
	countPrefix := func(it interface {
		Next() (string, []byte, bool)
	}) int {
		n := 0
		for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
			n++
		}
		return n
	}
	for s := 0; s < numShards; s++ {
		type view struct {
			version uint64
			digest  [32]byte
		}
		var first view
		for i, n := range c.shardNodes(s) {
			var v view
			n.Do(func() {
				store := n.Replica.Store()
				v = view{store.Version(), store.Digest()}
				if n.Manager != nil {
					st.dangling += len(n.Manager.DanglingLocks())
				}
				if i == 0 {
					head := store.Head()
					st.locks += countPrefix(head.IterPrefix(chaincode.LockPrefix))
					st.stages += countPrefix(head.IterPrefix(chaincode.StagePrefix))
					st.kRows += countPrefix(head.IterPrefix("k_"))
				}
			})
			if i == 0 {
				first = v
			} else if v != first && st.disagree == "" {
				st.disagree = fmt.Sprintf("shard %d: replica %d at version %d digest %x, replica 0 at version %d digest %x",
					s, i, v.version, v.digest[:6], first.version, first.digest[:6])
			}
		}
	}
	return st
}
