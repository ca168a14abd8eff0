package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The deployment under test, fixed for every workload: 2 shards x 4
// replicas, a reference committee of 4 and one client, AHL+, 20 ms batch
// timeout, interval fsync on a real data directory. No knob the roadmap
// plans to delete is set, so defaults are what is measured. Links are
// host loopback with no injected delay: latency is processor time plus
// protocol timers.
const (
	replicasPerCommittee = 4
	clusterSeed          = 7
)

// wrapFunc lets the traced run interpose its recorder on every
// transport the harness opens; nil in untraced runs.
type wrapFunc func(id simnet.NodeID, tr transport.Transport) transport.Transport

type cluster struct {
	cfg     *core.ClusterConfig
	nodes   []*core.LiveNode // shard replicas in shard order, then the reference committee
	trs     []*transport.TCP // one per node, then the client's
	client  *core.LiveClient
	dataDir string
}

// startCluster raises the in-process loopback-TCP cluster through the
// same public calls the live smoke test uses.
func startCluster(wrap wrapFunc) (*cluster, error) {
	dataDir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, err
	}
	cfg := &core.ClusterConfig{
		Seed:           clusterSeed,
		Variant:        "ahl+",
		BatchTimeoutMs: 20,
		DataDir:        dataDir,
		Fsync:          "interval",
	}
	listeners := make(map[simnet.NodeID]net.Listener)
	c := &cluster{cfg: cfg, dataDir: dataDir}
	fail := func(err error) (*cluster, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		c.stop()
		return nil, err
	}
	next := 0
	addNode := func() (core.NodeAddr, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return core.NodeAddr{}, err
		}
		id := next
		next++
		listeners[simnet.NodeID(id)] = ln
		return core.NodeAddr{ID: id, Addr: ln.Addr().String()}, nil
	}
	committee := func() ([]core.NodeAddr, error) {
		var out []core.NodeAddr
		for i := 0; i < replicasPerCommittee; i++ {
			n, err := addNode()
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
		return out, nil
	}
	for s := 0; s < numShards; s++ {
		nodes, err := committee()
		if err != nil {
			return fail(err)
		}
		cfg.Shards = append(cfg.Shards, nodes)
	}
	if cfg.Reference, err = committee(); err != nil {
		return fail(err)
	}
	clientAddr, err := addNode()
	if err != nil {
		return fail(err)
	}
	cfg.Clients = []core.NodeAddr{clientAddr}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}

	peers := cfg.PeerAddrs()
	open := func(id simnet.NodeID) (transport.Transport, error) {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Listener:    listeners[id],
			Peers:       peers,
			BackoffBase: 50 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		delete(listeners, id) // the transport owns it now
		c.trs = append(c.trs, tr)
		if wrap != nil {
			return wrap(id, tr), nil
		}
		return tr, nil
	}
	for _, n := range cfg.ReplicaNodes() {
		id := simnet.NodeID(n.ID)
		tr, err := open(id)
		if err != nil {
			return fail(err)
		}
		node, err := core.StartLiveNode(cfg, id, tr)
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, node)
	}
	tr, err := open(simnet.NodeID(clientAddr.ID))
	if err != nil {
		return fail(err)
	}
	if c.client, err = core.StartLiveClient(cfg, simnet.NodeID(clientAddr.ID), tr); err != nil {
		return fail(err)
	}
	return c, nil
}

// stop halts every process body the harness started, closes the
// transports and removes the data directory. It returns the first node
// shutdown error (a failed final WAL flush is a correctness failure).
func (c *cluster) stop() error {
	var first error
	if c.client != nil {
		c.client.Stop()
	}
	for _, n := range c.nodes {
		if err := n.Stop(); err != nil && first == nil {
			first = err
		}
	}
	for _, tr := range c.trs {
		tr.Close()
	}
	if err := os.RemoveAll(c.dataDir); err != nil && first == nil {
		first = err
	}
	return first
}

// shardNodes returns shard s's replicas.
func (c *cluster) shardNodes(s int) []*core.LiveNode {
	return c.nodes[s*replicasPerCommittee : (s+1)*replicasPerCommittee]
}

// counters is one window-edge reading of every public counter the
// benchmark uses: each replica reports only its own facts, and the
// harness merges them outside the program.
type counters struct {
	net     transport.TCPStats // frames and bytes sent, frames dropped, summed over the transports the harness opened
	obs     obs.Snapshot       // merged over replicas: counters and histograms add, gauges take the maximum
	inbox   uint64             // frames shed by full node inboxes
	disk    int64              // bytes under the data directory
	cpu     time.Duration      // process user+system time
	mallocs uint64
	alloc   uint64
	gcPause time.Duration
}

func (c *cluster) read() counters {
	out := counters{obs: obs.Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}}
	for _, tr := range c.trs {
		s := tr.Stats()
		out.net.SentFrames += s.SentFrames
		out.net.SentBytes += s.SentBytes
		out.net.Dropped += s.Dropped // includes queue overflows
	}
	for _, n := range c.nodes {
		out.inbox += n.DroppedInbound()
		snap := n.Obs().Reg.Snapshot()
		for k, v := range snap.Counters {
			out.obs.Counters[k] += v
		}
		for k, v := range snap.Gauges {
			if cur, ok := out.obs.Gauges[k]; !ok || v > cur {
				out.obs.Gauges[k] = v
			}
		}
		for k, v := range snap.Histograms {
			h := out.obs.Histograms[k]
			h.Merge(v)
			out.obs.Histograms[k] = h
		}
	}
	out.disk = dirBytes(c.dataDir)
	out.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.mallocs, out.alloc, out.gcPause = ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
	return out
}

// histSince returns histogram name's observations between two readings.
func histSince(a, b counters, name string) obs.HistogramSnapshot {
	hb, ha := b.obs.Histograms[name], a.obs.Histograms[name]
	d := obs.HistogramSnapshot{Size: hb.Size, Buckets: make([]uint64, len(hb.Buckets))}
	d.Count = hb.Count - ha.Count
	d.Sum = hb.Sum - ha.Sum
	for i := range hb.Buckets {
		d.Buckets[i] = hb.Buckets[i]
		if i < len(ha.Buckets) {
			d.Buckets[i] -= ha.Buckets[i]
		}
	}
	return d
}

func ctrSince(a, b counters, name string) float64 {
	return float64(b.obs.Counters[name] - a.obs.Counters[name])
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files come and go under a live WAL; count what is there
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem under dir, so a reader of the results can
// tell a tmpfs journal from a disk one.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
