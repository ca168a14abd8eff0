package core

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// The live runtime runs one topology node as a standalone process (or an
// in-process goroutine cluster, as the loopback smoke test does): the same
// replica/manager/client stack the simulator assembles, driven by a
// real-time event loop instead of a virtual clock, with remote traffic
// bridged onto a transport.Transport through the local network's gateway.
//
// The discrete-event engine stays the node's single-threaded scheduler —
// protocol code keeps its no-locks, deterministic-callback model — but the
// loop advances the virtual clock in lockstep with the wall clock: run
// everything due, sleep until the next timer or inbound frame, repeat.
// Virtual costs (CPU service time, enclave operations) default to ~zero in
// live mode because the process pays real CPU for its real work; set
// ClusterConfig.Table2Costs to re-inject the paper's measured SGX
// latencies into a live cluster.

// liveInboxLen bounds buffered inbound frames per node. A full inbox
// drops (the protocols retransmit), mirroring the bounded queues real
// nodes have.
const liveInboxLen = 8192

// liveLoop is the shared real-time driver under LiveNode and LiveClient.
type liveLoop struct {
	engine *sim.Engine
	net    *simnet.Network

	inbox chan simnet.Message
	ops   chan func()
	stop  chan struct{}
	done  chan struct{}

	// preverify, when set, runs on the transport goroutine for each
	// inbound message before it enters the inbox — attestation checks
	// happen concurrently with the engine's ordering work (see
	// pbft.Replica.Preverifier). Set before the handler is registered;
	// never written afterwards.
	preverify func(*simnet.Message)

	// intercept, when set, runs on the transport goroutine before
	// preverification; returning true consumes the message, and it never
	// reaches the engine loop. Query sub-queries are answered here: they
	// read only immutable height-pinned store views, so serving them off
	// the engine goroutine never contends with consensus or execution.
	// Set before the handler is registered; never written afterwards.
	intercept func(simnet.Message) bool

	// labels name the node and its role in CPU profiles.
	labels pprof.LabelSet

	stopOnce  sync.Once
	droppedIn atomic.Uint64
}

func newLiveLoop(engine *sim.Engine, net *simnet.Network, labels pprof.LabelSet) *liveLoop {
	return &liveLoop{
		engine: engine,
		net:    net,
		labels: labels,
		inbox:  make(chan simnet.Message, liveInboxLen),
		ops:    make(chan func(), 64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// handler returns the transport.Handler feeding this loop's inbox. It is
// called from transport goroutines; the message crosses into the engine
// goroutine through the channel. The TCP transport runs one receive
// goroutine per peer connection, so pre-verification naturally fans out
// across peers while the engine goroutine keeps ordering.
func (l *liveLoop) handler() transport.Handler {
	return func(m simnet.Message) {
		if l.intercept != nil && l.intercept(m) {
			return
		}
		if l.preverify != nil {
			l.preverify(&m)
		}
		select {
		case l.inbox <- m:
		default:
			l.droppedIn.Add(1)
		}
	}
}

// Do runs fn on the engine goroutine and waits for it — the only safe way
// to touch the node's protocol state (stores, counters, submissions) from
// outside. It returns false if the loop has stopped.
func (l *liveLoop) Do(fn func()) bool {
	ran := make(chan struct{})
	select {
	case l.ops <- func() { fn(); close(ran) }:
	case <-l.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-l.done:
		return false
	}
}

// Stop halts the loop and waits for it to exit. Idempotent.
func (l *liveLoop) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// start runs the loop on its own goroutine, labelled for the CPU
// profiler with the node id and role.
func (l *liveLoop) start() {
	go pprof.Do(context.Background(), l.labels, func(context.Context) { l.run() })
}

// profileLabels are a live node's CPU-profile labels: its id and its role
// ("shard <n>", "ref" or "client").
func profileLabels(id simnet.NodeID, place Place) pprof.LabelSet {
	role := "client"
	switch place.Role {
	case RoleShardReplica:
		role = "shard " + strconv.Itoa(place.Shard)
	case RoleRefReplica:
		role = "ref"
	}
	return pprof.Labels("node", strconv.Itoa(int(id)), "role", role)
}

func (l *liveLoop) run() {
	defer close(l.done)
	wallStart := time.Now() //ahl:nondeterministic the live loop IS the wall-clock bridge: it maps real elapsed time onto the virtual clock
	base := l.engine.Now()
	timer := time.NewTimer(time.Hour) //ahl:nondeterministic live-mode sleep between virtual-clock advances; never used under simulation
	defer timer.Stop()
	for {
		// Advance the virtual clock to "now" and run everything due.
		target := base.Add(time.Since(wallStart)) //ahl:nondeterministic wall-clock bridge: elapsed real time drives the virtual target
		if target <= base {
			target = base + 1 // Run treats 0 as "until idle"
		}
		l.engine.Run(target)

		// Sleep until the earliest queued event (timers, scheduled CPU
		// completions), an inbound frame, or an external op.
		wait := time.Hour
		if next, ok := l.engine.PeekNext(); ok {
			wait = next.Sub(l.engine.Now())
			if wait < 0 {
				wait = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)

		select {
		case <-l.stop:
			return
		case m := <-l.inbox:
			l.net.Inject(m)
			l.drainInbox()
		case fn := <-l.ops:
			fn()
		case <-timer.C:
		}
	}
}

func (l *liveLoop) drainInbox() {
	for {
		select {
		case m := <-l.inbox:
			l.net.Inject(m)
		default:
			return
		}
	}
}

// keySigner derives node id's deployment-wide key pair on scheme. Every
// process calls this for every node it must verify, with the shared
// topology seed, so all processes agree on all key material without any
// distribution step. (SimScheme tags are MAC-like: knowing a peer's secret
// is inherent to verifying it. A PKI-backed scheme would register public
// keys here instead; the paper's threat model is exercised in the
// simulator, not re-proved by the live transport.)
func keySigner(scheme blockcrypto.Scheme, seed int64, id simnet.NodeID) blockcrypto.Signer {
	src := rand.NewSource(seed*1_000_003 + int64(id)*7_919 + 17)
	return scheme.NewSigner(pbft.KeyOf(id), rand.New(src))
}

// teeSeedFor derives a node's enclave-platform randomness seed.
func teeSeedFor(seed int64, id simnet.NodeID) int64 {
	return seed*6_700_417 + int64(id)*104_729 + 29
}

// buildLiveStack creates the engine/network pair every live node runs on
// and bridges its outbound traffic to tr. The caller registers the
// loop's inbound handler on tr once the stack is fully assembled (a
// replica's pre-verifier must be installed on the loop first, or the
// first frames would race its installation).
func buildLiveStack(c *ClusterConfig, id simnet.NodeID, place Place, tr transport.Transport) (*sim.Engine, *simnet.Network, *liveLoop) {
	engine := sim.NewEngine(teeSeedFor(c.Seed, id) + 1)
	net := simnet.New(engine, simnet.LAN())
	loop := newLiveLoop(engine, net, profileLabels(id, place))
	net.SetGateway(func(m simnet.Message) { tr.Send(m) })
	return engine, net, loop
}

// LiveNode is one committee replica running standalone: the ahlnode
// process body, also raised in-process by the loopback smoke test.
type LiveNode struct {
	ID      simnet.NodeID
	Place   Place
	Replica *pbft.Replica
	// Manager is non-nil when the topology has a reference committee.
	Manager *txn.Manager

	loop    *liveLoop
	backend storage.Backend
	obsHub  *obs.Hub
	fatal   chan error
}

// openBackend opens node id's durable storage per the cluster config
// (nil backend when the deployment runs memory-only), registering its
// WAL/snapshot instrumentation on reg.
func openBackend(c *ClusterConfig, id simnet.NodeID, reg *obs.Registry) (storage.Backend, error) {
	dir := c.NodeDataDir(id)
	if dir == "" {
		return nil, nil
	}
	mode, err := c.fsyncMode()
	if err != nil {
		return nil, err
	}
	opts := storage.DiskOptions{Fsync: mode, Logf: log.Printf, Metrics: storage.NewMetrics(reg)}
	if c.FsyncIntervalMs > 0 {
		opts.Interval = time.Duration(c.FsyncIntervalMs) * time.Millisecond
	}
	if c.WALSegmentKB > 0 {
		opts.SegmentBytes = int64(c.WALSegmentKB) << 10
	}
	return storage.OpenDisk(dir, opts)
}

// recover replays the node's durable state into a freshly built stack:
// newest valid snapshot first (replica state + the manager's 2PC stage
// blob), then the WAL tail in order — block and checkpoint records through
// the replica, stage records through the manager — and finally the
// managers' recovery completion. Runs before the event loop starts; the
// sends it triggers (votes, prepares) queue in the engine and go out once
// the loop runs.
func (n *LiveNode) recover() error {
	snap, tail, err := n.backend.Recover()
	if err != nil {
		return fmt.Errorf("live: node %d: recover: %w", n.ID, err)
	}
	if snap != nil {
		stage, err := n.Replica.RestoreDurableSnapshot(snap)
		if err != nil {
			return fmt.Errorf("live: node %d: restore snapshot seq %d: %w", n.ID, snap.Seq, err)
		}
		if n.Manager != nil {
			if err := n.Manager.ApplyStageBlob(stage); err != nil {
				return fmt.Errorf("live: node %d: stage blob: %w", n.ID, err)
			}
		}
	}
	var blocks, stages int
	for _, rec := range tail {
		switch rec.Kind {
		case storage.KindBlock:
			if err := n.Replica.ReplayDecided(rec.Seq, rec.Block); err != nil {
				return fmt.Errorf("live: node %d: %w", n.ID, err)
			}
			blocks++
		case storage.KindCheckpoint:
			n.Replica.ReplayCheckpoint(rec.Seq)
		case storage.KindStage:
			if n.Manager == nil {
				continue
			}
			if err := n.Manager.ApplyStage(rec.Stage); err != nil {
				return fmt.Errorf("live: node %d: %w", n.ID, err)
			}
			stages++
		}
	}
	if n.Manager != nil {
		n.Manager.FinishRecovery()
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.Seq
	}
	log.Printf("live: node %d: recovered snapshot seq %d, WAL tail %d blocks + %d stage records",
		n.ID, snapSeq, blocks, stages)
	// Whatever the committee decided while this process was down comes
	// through the normal state-sync/replay protocol once traffic flows.
	n.Replica.ResyncWithPeers()
	return nil
}

// StartLiveNode assembles and starts the replica for node id of the
// cluster topology. The caller owns tr and closes it after Stop.
func StartLiveNode(c *ClusterConfig, id simnet.NodeID, tr transport.Transport) (*LiveNode, error) {
	place, ok := c.Place(id)
	if !ok {
		return nil, fmt.Errorf("live: node %d not in topology", id)
	}
	if place.Role == RoleClient {
		return nil, fmt.Errorf("live: node %d is a client; use StartLiveClient", id)
	}
	cfg := c.liveConfig()
	topo := c.Topology()
	// One wall-clocked hub per process: the only sanctioned wall-time
	// source in the protocol stack is the obs clock seam (see obs.WallClock).
	hub := obs.NewHub(obs.WallClock(), obs.Options{})
	backend, err := openBackend(c, id, hub.Reg)
	if err != nil {
		return nil, err
	}
	_, net, loop := buildLiveStack(c, id, place, tr)
	hub.Reg.CounterFunc("node_inbox_dropped_total", loop.droppedIn.Load)

	// Deployment-wide key material: the committee this replica verifies
	// is its own, so derive every committee member's keys (and our own
	// signer among them).
	scheme := blockcrypto.NewSimScheme()
	var committee []simnet.NodeID
	var spec pbft.CommitteeSpec
	switch place.Role {
	case RoleShardReplica:
		committee = topo.ShardNodes[place.Shard]
		spec = ShardSpec(cfg, committee, nil)
	case RoleRefReplica:
		committee = topo.RefNodes
		spec = RefSpec(cfg, topo.RefNodes, nil)
	}
	var signer blockcrypto.Signer
	for _, member := range committee {
		s := keySigner(scheme, c.Seed, member)
		if member == id {
			signer = s
		}
	}

	spec.Durable = backend
	spec.Obs = hub
	replica, _ := pbft.BuildReplica(net, scheme, spec, place.Index, signer, teeSeedFor(c.Seed, id))
	n := &LiveNode{ID: id, Place: place, Replica: replica, loop: loop,
		backend: backend, obsHub: hub, fatal: make(chan error, 1)}
	replica.OnStorageFatal(n.noteFatal)
	if len(c.Reference) > 0 {
		if place.Role == RoleShardReplica {
			n.Manager = txn.NewManager(txn.RoleShard, place.Shard, topo, replica)
		} else {
			n.Manager = txn.NewManager(txn.RoleReference, 0, topo, replica)
		}
		if backend != nil {
			n.Manager.EnableDurability(backend)
		}
	}
	// Shard replicas answer query sub-queries directly on the transport
	// goroutine: Answer reads only through sealed immutable views and the
	// commit-record index (both safe from any goroutine), so the read path
	// touches neither the engine loop, consensus, nor the 2PL tables.
	if place.Role == RoleShardReplica {
		store := replica.Store()
		loop.intercept = func(m simnet.Message) bool {
			if m.Type != query.MsgQueryRequest {
				return false
			}
			if req, ok := m.Payload.(*query.Request); ok {
				ch := query.Answer(store, req)
				tr.Send(simnet.Message{From: id, To: m.From, Class: simnet.ClassRequest,
					Type: query.MsgQueryChunk, Payload: ch,
					Size: wire.PayloadSize(query.MsgQueryChunk, ch)})
			}
			return true
		}
	}
	// Attestation checks move off the engine goroutine: frames arriving
	// from here on are pre-verified on the transport's per-connection
	// goroutines and buffered in the inbox until the loop runs.
	loop.preverify = replica.Preverifier()
	tr.RegisterHandler(id, loop.handler())
	if backend != nil {
		if err := n.recover(); err != nil {
			backend.Close()
			return nil, err
		}
	}
	loop.start()
	return n, nil
}

// noteFatal records a durability failure and wakes Fatal() watchers. It
// runs on the engine goroutine, so it must not call Stop (which waits for
// that goroutine); the process supervisor reacts instead.
func (n *LiveNode) noteFatal(err error) {
	select {
	case n.fatal <- err:
	default:
	}
}

// Fatal delivers unrecoverable storage errors: the replica has stopped
// executing (it will not run what the WAL cannot hold) and the process
// should exit non-zero.
func (n *LiveNode) Fatal() <-chan error { return n.fatal }

// Do runs fn on the node's engine goroutine (see liveLoop.Do).
func (n *LiveNode) Do(fn func()) bool { return n.loop.Do(fn) }

// Obs returns the node's observability hub (never nil for a live node).
// Its registry and tracer are safe to read from any goroutine, which is
// how the metrics HTTP handler serves snapshots without touching the
// engine loop.
func (n *LiveNode) Obs() *obs.Hub { return n.obsHub }

// Executed returns the replica's executed-transaction count.
func (n *LiveNode) Executed() int {
	var v int
	n.Do(func() { v = n.Replica.Executed() })
	return v
}

// DroppedInbound reports frames shed by a full inbox.
func (n *LiveNode) DroppedInbound() uint64 { return n.loop.droppedIn.Load() }

// Stop halts the node's event loop and cleanly flushes and closes its
// storage backend. The transport is the caller's to close (several
// in-process nodes may share one).
func (n *LiveNode) Stop() error {
	n.loop.Stop()
	if n.backend == nil {
		return nil
	}
	if err := n.backend.Sync(); err != nil {
		n.backend.Close()
		return fmt.Errorf("live: node %d: flush storage: %w", n.ID, err)
	}
	if err := n.backend.Close(); err != nil {
		return fmt.Errorf("live: node %d: close storage: %w", n.ID, err)
	}
	return nil
}

// Kill halts the node like a crash: the event loop stops but the backend
// is abandoned without a final flush, leaving on disk exactly what the
// configured fsync policy already made durable. In-process restart tests
// use it; a real kill -9 is the stronger version the CI smoke script
// applies.
func (n *LiveNode) Kill() {
	n.loop.Stop()
	if d, ok := n.backend.(*storage.Disk); ok {
		d.Abandon()
	}
}

// LiveClient is a client gateway running against a live cluster: the
// ahlctl process body. Completion callbacks run on the client's engine
// goroutine and must return quickly (typically a channel send).
type LiveClient struct {
	ID     simnet.NodeID
	Shards int

	client  *txn.Client
	gateway *query.Gateway
	targets []simnet.NodeID // first replica of each shard, the scatter set
	loop    *liveLoop
	nextID  atomic.Uint64
	salt    uint64 // random per-process counter start, fixed at birth
}

// StartLiveClient assembles and starts the client gateway for node id.
func StartLiveClient(c *ClusterConfig, id simnet.NodeID, tr transport.Transport) (*LiveClient, error) {
	place, ok := c.Place(id)
	if !ok {
		return nil, fmt.Errorf("live: node %d not in topology", id)
	}
	if place.Role != RoleClient {
		return nil, fmt.Errorf("live: node %d is a %s, not a client", id, place.Role)
	}
	topo := c.Topology()
	_, net, loop := buildLiveStack(c, id, place, tr)
	tr.RegisterHandler(id, loop.handler())
	lc := &LiveClient{
		ID:     id,
		Shards: len(c.Shards),
		client: txn.NewClient(net, id, topo),
		loop:   loop,
	}
	// The scatter-gather query gateway rides the same endpoint as the
	// transaction client (it wraps the handler chain and passes all
	// non-query traffic through).
	lc.gateway = query.NewGateway(lc.client.Endpoint())
	for _, shard := range topo.ShardNodes {
		lc.targets = append(lc.targets, shard[0])
	}
	// Client-unique id space: id(16b) | counter(48b), with the counter
	// started at a crypto/rand point in its space. Committees deduplicate
	// on tx id forever, so a restarted client that reused a previous
	// run's ids would see stale cached replies instead of fresh
	// executions; two runs collide only if one's random start lands
	// inside the range another consumed (~n/2^48 for an n-transaction
	// run), rather than depending on clock granularity. (Topology ids are
	// capped at 16 bits by Validate, so id never collides with the
	// counter field.)
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("live: client %d: tx id salt: %w", id, err)
	}
	lc.salt = binary.LittleEndian.Uint64(seed[:]) & (1<<48 - 1)
	lc.nextID.Store(uint64(id)<<48 | lc.salt)
	loop.start()
	return lc, nil
}

// NextTxID returns a process-unique transaction id in this client's id
// space. If the counter ever carried out of its 48 bits it would alias
// another client's space, so that is a loud failure, not a silent wrap —
// unreachable in practice (the counter starts uniformly below 2^48, so a
// run would need ~2^47 transactions for even coin-flip odds).
func (c *LiveClient) NextTxID() uint64 {
	v := c.nextID.Add(1)
	if v>>48 != uint64(c.ID) {
		panic(fmt.Sprintf("live: client %d exhausted its tx id space", c.ID))
	}
	return v
}

// RunTag returns a short per-process tag clients weave into distributed
// transaction ids: the coordinator's terminal states are permanent, so a
// restarted driver must never reuse a txid string either. The tag is the
// run's random counter start, so it is stable for the process lifetime.
func (c *LiveClient) RunTag() string {
	return fmt.Sprintf("%d.%x", c.ID, c.salt)
}

// SubmitDistributed submits a cross-shard transaction (Figure 5 flow).
func (c *LiveClient) SubmitDistributed(d txn.DTx, done func(txn.Result)) error {
	if !c.loop.Do(func() { c.client.SubmitDistributed(d, done) }) {
		return fmt.Errorf("live: client %d stopped", c.ID)
	}
	return nil
}

// SubmitSingle submits a single-shard transaction and completes after
// f+1 matching replies.
func (c *LiveClient) SubmitSingle(shard int, tx chain.Tx, done func(txn.Result)) error {
	if !c.loop.Do(func() { c.client.SubmitSingle(shard, tx, done) }) {
		return fmt.Errorf("live: client %d stopped", c.ID)
	}
	return nil
}

// ShardOf maps an application key to its owning shard under this
// topology.
func (c *LiveClient) ShardOf(key string) int { return ShardOfKey(key, c.Shards) }

// QueryTargets returns the replica each shard's sub-queries are served
// by (the first replica of each shard committee).
func (c *LiveClient) QueryTargets() []simnet.NodeID {
	return append([]simnet.NodeID(nil), c.targets...)
}

// Query launches a scatter-gather read against the cluster. The query's
// callbacks run on the client's engine goroutine and must return quickly
// (typically a channel send). The returned error covers validation only;
// outcomes arrive through q.OnDone.
func (c *LiveClient) Query(q *query.Query) error {
	if len(q.Targets) == 0 {
		q.Targets = c.targets
	}
	errc := make(chan error, 1)
	if !c.loop.Do(func() { errc <- c.gateway.Start(q) }) {
		return fmt.Errorf("live: client %d stopped", c.ID)
	}
	return <-errc
}

// Conservation runs the height-consistent balance sweep (committed
// checking + savings totals at one pinned cut, plus resolved in-flight
// 2PC residues) and blocks for the result. timeout is split evenly
// across attempts: each attempt is a fresh sweep, so retries cover both
// checkpoint-overtook-the-cut failures and sub-query messages lost over
// TCP (the query protocol itself sends each page exactly once — the
// deadline/retry policy lives here, with the caller).
func (c *LiveClient) Conservation(attempts int, timeout time.Duration) (*query.ConservationResult, error) {
	type outcome struct {
		res *query.ConservationResult
		err error
	}
	if attempts < 1 {
		attempts = 1
	}
	// Buffered for every attempt: an abandoned sweep that completes late
	// must never block the engine goroutine on its channel send.
	out := make(chan outcome, attempts)
	var lastErr error
	for i := 0; i < attempts; i++ {
		ok := c.loop.Do(func() {
			query.Conservation(c.gateway, c.targets, 1, func(res *query.ConservationResult, err error) {
				out <- outcome{res, err}
			})
		})
		if !ok {
			return nil, fmt.Errorf("live: client %d stopped", c.ID)
		}
		select {
		case o := <-out:
			if o.err == nil || (!errors.Is(o.err, chain.ErrHeightPruned) && !errors.Is(o.err, query.ErrNoPin)) {
				return o.res, o.err
			}
			lastErr = o.err // retryable: re-pin on the next attempt
		case <-time.After(timeout / time.Duration(attempts)): //ahl:nondeterministic client-facing deadline on a live query; never used under simulation
			lastErr = fmt.Errorf("live: client %d: conservation attempt timed out after %v",
				c.ID, timeout/time.Duration(attempts))
		}
	}
	return nil, fmt.Errorf("live: client %d: conservation query failed after %d attempts: %w",
		c.ID, attempts, lastErr)
}

// Stop halts the client's event loop.
func (c *LiveClient) Stop() { c.loop.Stop() }
