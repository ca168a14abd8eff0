package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// The traced run's recorder. Nothing outside benchmark/ is
// instrumented: the recorder sees the program only through a decorator
// on the transports the harness itself opens, the client-side op
// records, and the process's own MemStats/rusage.
//
// A nil *tracer is the untraced run: every method is a no-op on it, so
// the harness has one code path.

const (
	sampleEvery   = 64 // one op in this many gets child spans for its client-side frames
	keepFrames    = 4  // real frames of each message type kept for the wire drive
	samplerPeriod = 100 * time.Millisecond
)

// span is one interval of the trace. Spans of one client op share its
// op id; the written trace also gives each span an id and the id of the
// span that caused it (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // from the tracer's epoch
	op         int
	args       map[string]any
}

type frameStat struct {
	out, in   uint64
	outBytes  uint64
	inBytes   uint64
	handlerNs uint64
}

type procSample struct {
	at      time.Duration
	heapMB  float64
	cpuMs   float64
	gcCount uint32
}

type tracer struct {
	workload string
	outDir   string
	epoch    time.Time
	clientID simnet.NodeID

	mu        sync.Mutex
	live      bool                        // between begin and end
	replica   map[string]*frameStat       // by message type, summed over replicas
	client    map[string]*frameStat       // by message type, the client's own transport
	kept      map[string][][]byte         // first real frames of each type
	pageSpans []span                      // one per query page, recorded live
	chainOps  map[uint64]int              // sampled chain tx id -> op seq
	dtxOps    map[string]int              // sampled distributed txid -> op seq
	frameSpan map[int][]span              // op seq -> its client-side frame spans
	pages     map[[2]uint64]time.Duration // (query id, sub-query) -> page request sent
	scanPages int                         // page requests of full scans
	roots     []span                      // one per client op, built after each phase
	samples   []procSample
	stopSamp  chan struct{}
	sampDone  chan struct{}
}

func newTracer(workload, outDir string) *tracer {
	return &tracer{
		workload: workload, outDir: outDir, epoch: time.Now(),
		replica: map[string]*frameStat{}, client: map[string]*frameStat{},
		kept: map[string][][]byte{}, chainOps: map[uint64]int{}, dtxOps: map[string]int{},
		frameSpan: map[int][]span{}, pages: map[[2]uint64]time.Duration{},
	}
}

// wrap returns the decorator startCluster applies to each transport.
func (t *tracer) wrap() wrapFunc {
	if t == nil {
		return nil
	}
	return func(id simnet.NodeID, tr transport.Transport) transport.Transport {
		return &tap{t: t, id: id, inner: tr}
	}
}

// onIDs returns the hook through which the target names the transaction
// each sampled op became.
func (t *tracer) onIDs() func(seq int, chainID uint64, txid string) {
	if t == nil {
		return nil
	}
	return func(seq int, chainID uint64, txid string) {
		if seq%sampleEvery != 0 {
			return
		}
		t.mu.Lock()
		if txid != "" {
			t.dtxOps[txid] = seq
		} else {
			t.chainOps[chainID] = seq
		}
		t.mu.Unlock()
	}
}

// begin starts recording: set-up traffic is not part of the trace.
func (t *tracer) begin(c *cluster) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clientID = c.client.ID
	t.live = true
	t.mu.Unlock()
	t.stopSamp, t.sampDone = make(chan struct{}), make(chan struct{})
	go t.sampler()
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	close(t.stopSamp)
	<-t.sampDone
	t.mu.Lock()
	t.live = false
	t.mu.Unlock()
}

func (t *tracer) sampler() {
	defer close(t.sampDone)
	tick := time.NewTicker(samplerPeriod)
	defer tick.Stop()
	for {
		select {
		case <-t.stopSamp:
			return
		case <-tick.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s := procSample{at: time.Since(t.epoch), heapMB: float64(ms.HeapAlloc) / (1 << 20),
				cpuMs: float64(cpuTime()) / float64(time.Millisecond), gcCount: ms.NumGC}
			t.mu.Lock()
			t.samples = append(t.samples, s)
			t.mu.Unlock()
		}
	}
}

// phase turns a finished phase's op records into root spans and hangs
// the sampled ops' frame spans under them.
func (t *tracer) phase(spec phaseSpec, res *phaseResult, seqBase int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	off := res.start.Sub(t.epoch)
	for i := 0; i < res.issued; i++ {
		r := &res.recs[i]
		state := r.state.Load()
		end := r.done
		if state == statePending {
			end = res.measTo
		}
		t.roots = append(t.roots, span{
			name: spec.name + ":" + res.ops[i].kind.String(), start: off + r.due, end: off + end, op: seqBase + i,
			args: map[string]any{
				"sent_us": float64(r.sent-r.due) / float64(time.Microsecond),
				"outcome": [...]string{"pending", "committed", "aborted", "submit-error"}[state],
			},
		})
	}
}

// tap decorates one node's transport.
type tap struct {
	t     *tracer
	id    simnet.NodeID
	inner transport.Transport
}

func (p *tap) Send(m simnet.Message) error {
	p.t.frame(p.id, m, true, time.Since(p.t.epoch), 0)
	return p.inner.Send(m)
}

func (p *tap) RegisterHandler(id simnet.NodeID, h transport.Handler) {
	p.inner.RegisterHandler(id, func(m simnet.Message) {
		t0 := time.Now()
		h(m)
		p.t.frame(p.id, m, false, t0.Sub(p.t.epoch), time.Since(t0))
	})
}

func (p *tap) Close() error { return p.inner.Close() }

func (t *tracer) frame(node simnet.NodeID, m simnet.Message, out bool, at, handler time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live {
		return
	}
	stats := t.replica
	if node == t.clientID {
		stats = t.client
	}
	st := stats[m.Type]
	if st == nil {
		st = &frameStat{}
		stats[m.Type] = st
	}
	if out {
		st.out++
		st.outBytes += uint64(m.Size)
		if len(t.kept[m.Type]) < keepFrames {
			if b, err := wire.EncodeMessage(nil, m); err == nil {
				t.kept[m.Type] = append(t.kept[m.Type], b)
			}
		}
	} else {
		st.in++
		st.inBytes += uint64(m.Size)
		st.handlerNs += uint64(handler)
	}
	if node == t.clientID {
		t.clientFrame(m, out, at, handler)
	}
}

// clientFrame attributes one client-side frame to a sampled op or to a
// query page. Called with the lock held.
func (t *tracer) clientFrame(m simnet.Message, out bool, at, handler time.Duration) {
	seq, ok := -1, false
	switch p := m.Payload.(type) {
	case chain.Tx: // outbound request; a 2PC begin carries the distributed txid first
		if seq, ok = t.chainOps[p.ID]; !ok && p.Chaincode == "refcom" && len(p.Args) > 0 {
			seq, ok = t.dtxOps[p.Args[0]]
		}
	case pbft.Reply:
		seq, ok = t.chainOps[p.TxID]
	case txn.OutcomeMsg:
		seq, ok = t.dtxOps[p.TxID]
	case *query.Request:
		t.pages[[2]uint64{p.QID, uint64(p.Sub)}] = at
		if p.Kind == query.KindScan && p.Proj == query.ProjKV && p.Agg == query.AggNone {
			t.scanPages++
		}
	case *query.Chunk:
		key := [2]uint64{p.QID, uint64(p.Sub)}
		if sent, found := t.pages[key]; found {
			delete(t.pages, key)
			t.pageSpans = append(t.pageSpans, span{name: "query page", start: sent, end: at + handler, op: int(p.QID),
				args: map[string]any{"shard": p.Sub, "rows": len(p.Rows), "err": p.Err}})
		}
	}
	if ok {
		dir := "recv "
		if out {
			dir = "send "
		}
		t.frameSpan[seq] = append(t.frameSpan[seq], span{name: dir + m.Type, start: at, end: at + handler, op: seq,
			args: map[string]any{"peer": peerOf(m, out), "bytes": m.Size}})
	}
}

func peerOf(m simnet.Message, out bool) simnet.NodeID {
	if out {
		return m.To
	}
	return m.From
}

// metrics adds the tap-derived per-layer metrics to rec; an untraced run
// reports them missing. batches is the number of batch executions the
// replicas counted over the run (each decided batch executes once per
// replica).
func (t *tracer) metrics(rec *runRecord, batches uint64, reader *readerStats) {
	for _, name := range []string{"core.preverify_ns_per_msg", "pbft.msgs_per_batch", "query.pages_per_scan", "trace.overhead_share"} {
		def, _ := defOf(name)
		rec.Metrics[name] = value{Value: missing, Unit: def.unit}
	}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	set := func(name string, v float64, n int) {
		def, _ := defOf(name)
		rec.Metrics[name] = value{Value: v, Unit: def.unit, N: n}
	}
	var handled, handlerNs, consensus uint64
	for typ, st := range t.replica {
		handled += st.in
		handlerNs += st.handlerNs
		if strings.HasPrefix(typ, "pbft/") && !strings.HasPrefix(typ, pbft.MsgRequest) && typ != pbft.MsgReply {
			consensus += st.out
		}
	}
	set("core.preverify_ns_per_msg", per(float64(handlerNs), float64(handled)), int(handled))
	set("pbft.msgs_per_batch", per(float64(consensus), float64(batches)/replicasPerCommittee), int(batches/replicasPerCommittee))
	set("query.pages_per_scan", 0, 0)
	if reader != nil {
		set("query.pages_per_scan", per(float64(t.scanPages), float64(reader.scanTries)), reader.scanTries)
	}
	if ref, ok := loadRecord(filepath.Join(t.outDir, "e2e-"+t.workload+".json")); ok {
		if reader != nil {
			set("trace.overhead_share", rec.Metrics["p50_ms"].Value/ref.Metrics["p50_ms"].Value-1, 0)
		} else {
			set("trace.overhead_share", 1-rec.Metrics["goodput_per_s"].Value/ref.Metrics["goodput_per_s"].Value, 0)
		}
	}
}

// write stores the Chrome trace (load it at chrome://tracing or
// ui.perfetto.dev) and the captured frames for the wire drive.
func (t *tracer) write() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []event
	emit := func(s span, pid, tid, id, parent int) {
		args := map[string]any{"span": id, "parent": parent, "op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: pid, Tid: tid, Args: args})
	}
	// Ops go on lanes so that complete events on one lane never overlap;
	// a sampled op's frame spans sit on its lane, nested inside it.
	var laneFree []time.Duration
	id := 0
	for _, r := range t.roots {
		lane := -1
		for l, free := range laneFree {
			if free <= r.start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneFree)
			laneFree = append(laneFree, 0)
		}
		laneFree[lane] = r.end
		rootID := id
		emit(r, 1, lane, rootID, -1)
		id++
		for _, f := range t.frameSpan[r.op] {
			emit(f, 1, lane, id, rootID)
			id++
		}
	}
	for _, s := range t.pageSpans {
		emit(s, 2, int(s.args["shard"].(uint32)), id, -1)
		id++
	}
	for _, s := range t.samples {
		events = append(events, event{Name: "process", Ph: "C", Ts: us(s.at), Pid: 3,
			Args: map[string]any{"heap_mb": s.heapMB, "cpu_ms": s.cpuMs, "gc": s.gcCount}})
	}
	meta := func(pid int, name string) {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}
	meta(1, "client ops ("+t.workload+")")
	meta(2, "query pages by shard")
	meta(3, "process samples")

	type typeRow struct {
		Type      string `json:"type"`
		Where     string `json:"where"`
		Out       uint64 `json:"frames_out"`
		In        uint64 `json:"frames_in"`
		OutBytes  uint64 `json:"bytes_out"`
		InBytes   uint64 `json:"bytes_in"`
		HandlerNs uint64 `json:"handler_ns"`
	}
	var rows []typeRow
	for where, stats := range map[string]map[string]*frameStat{"replicas": t.replica, "client": t.client} {
		for typ, st := range stats {
			rows = append(rows, typeRow{typ, where, st.out, st.in, st.outBytes, st.inBytes, st.handlerNs})
		}
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "frames_by_type": rows}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(t.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.outDir, "trace-"+t.workload+".json"), raw, 0o644); err != nil {
		return err
	}
	// Captured frames, length-prefixed, for benchmark/drives/wire.
	var frames []byte
	for _, list := range t.kept {
		for _, f := range list {
			frames = binary.BigEndian.AppendUint32(frames, uint32(len(f)))
			frames = append(frames, f...)
		}
	}
	return os.WriteFile(filepath.Join(t.outDir, "frames-"+t.workload+".bin"), frames, 0o644)
}

func loadRecord(path string) (*runRecord, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var rec runRecord
	if json.Unmarshal(raw, &rec) != nil || rec.Metrics == nil {
		return nil, false
	}
	return &rec, true
}
