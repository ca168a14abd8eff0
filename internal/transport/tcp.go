package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// maxFrame bounds one length-prefixed frame (64 MiB): large enough for a
// full state snapshot, small enough that a corrupt length prefix cannot
// make a reader allocate unboundedly.
const maxFrame = 1 << 26

// Syscalls are paid per burst of frames, not per frame. The caps keep
// every per-connection and per-peer buffer small: a process holds one of
// each per connection, and a cluster node has a dozen connections.
const (
	// readBufSize is each inbound connection's bufio.Reader size.
	readBufSize = 16 << 10
	// reuseFrameMax is the largest frame decoded from the connection's
	// reused receive buffer; larger ones (snapshots, state-sync replies)
	// get their own allocation, so the reused buffer never grows past it.
	// Reuse is safe because wire.Decoder copies everything it returns.
	reuseFrameMax = 64 << 10
	// burstFrames and burstBytes cap one vectored write: after the
	// blocking receive of one frame the writer takes whatever else is
	// already queued, up to either cap, and writes it with one call.
	burstFrames = 64
	burstBytes  = 256 << 10
	// writeTimeout bounds one burst write on a live connection.
	writeTimeout = 5 * time.Second
)

// TCPConfig configures a TCP transport.
type TCPConfig struct {
	// Listen is the address to accept inbound connections on. Empty with
	// no Listener means send-only (a pure client that receives replies on
	// its own listener would instead set one of the two).
	Listen string
	// Listener optionally supplies a pre-bound listener (tests bind :0
	// themselves to learn the port before building the topology).
	Listener net.Listener
	// Peers maps remote node ids to dialable addresses. Multiple ids may
	// share an address (a process hosting several nodes); frames to them
	// share one connection and queue.
	Peers map[simnet.NodeID]string

	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// BackoffBase/BackoffMax shape the redial backoff: the delay after a
	// failed dial starts at BackoffBase and doubles up to BackoffMax
	// (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueueLen is each peer's outbound queue capacity in frames (default
	// 1024). A full queue drops the newest frame — the protocols above
	// retransmit.
	QueueLen int
	// FlushTimeout bounds how long Close spends draining queued frames
	// (default 2s).
	FlushTimeout time.Duration
	// Logf, when set, receives connection lifecycle diagnostics.
	// Operational health (queue overflows, reconnects, per-peer queue
	// depth) is exported through RegisterMetrics instead of the log.
	Logf func(format string, args ...any)
}

func (c *TCPConfig) withDefaults() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.QueueLen == 0 {
		c.QueueLen = 1024
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 2 * time.Second
	}
}

// TCPStats counts a transport's traffic.
type TCPStats struct {
	SentFrames uint64
	SentBytes  uint64
	RecvFrames uint64
	RecvBytes  uint64
	// Dropped counts frames lost locally: full queues, write failures,
	// frames for unregistered local ids, and frames discarded at close.
	Dropped uint64
	// QueueOverflows counts the subset of Dropped shed because a peer's
	// outbound queue was full — the signal that a peer is down or slow.
	QueueOverflows uint64
	// Redials counts reconnection attempts after a broken connection.
	Redials uint64
	// Reconnects counts connections successfully re-established after a
	// break or dial failure (Redials counts the attempts).
	Reconnects uint64
	// WriteCalls counts vectored writes, one per burst of queued frames
	// (a burst re-sent on a fresh connection counts twice); SentFrames /
	// WriteCalls is the batching the writer achieved.
	WriteCalls uint64
	// ReadCalls counts reads on inbound connections, each filling the
	// connection's buffer with as many frames as the kernel holds;
	// RecvFrames / ReadCalls is the batching the reader achieved.
	ReadCalls uint64
}

// TCP is the socket-backed Transport: internal/wire frames, length
// prefixes, one lazily-dialed connection and outbound queue per peer
// address, exponential redial backoff, and graceful shutdown.
type TCP struct {
	cfg  TCPConfig
	ln   net.Listener
	logf func(string, ...any)

	mu       sync.RWMutex
	handlers map[simnet.NodeID]Handler
	peers    map[string]*tcpPeer
	conns    map[net.Conn]bool
	shut     bool
	reg      *obs.Registry // set by RegisterMetrics; peers created later self-register

	closed chan struct{}
	wg     sync.WaitGroup

	sentFrames atomic.Uint64
	sentBytes  atomic.Uint64
	recvFrames atomic.Uint64
	recvBytes  atomic.Uint64
	dropped    atomic.Uint64
	overflows  atomic.Uint64
	redials    atomic.Uint64
	reconnects atomic.Uint64
	writeCalls atomic.Uint64
	readCalls  atomic.Uint64
}

type tcpPeer struct {
	addr string
	ch   chan []byte

	// overflows counts frames shed at this peer's full queue, exported as
	// transport_peer_overflows_total{peer=addr} via RegisterMetrics.
	overflows atomic.Uint64
	// hadConn marks that the write loop once held a live connection, which
	// turns the next successful dial into a reconnect (writeLoop only).
	hadConn bool
	// gen identifies the current outbound connection; dead is set by that
	// connection's EOF watchdog (see watchConn) so writeFrame redials
	// instead of writing into a kernel buffer the peer will never read.
	gen  atomic.Uint64
	dead atomic.Bool

	// burst holds the frames of the write in progress and iov the slice
	// headers net.Buffers consumes while writing them, so a failed burst
	// can be re-sent whole (writeLoop only; both cleared after each burst
	// so sent frames are not kept alive).
	burst [][]byte
	iov   [][]byte
}

// NewTCP starts a TCP transport. If cfg names a listen address (or
// supplies a listener) the accept loop starts immediately; outbound
// connections are dialed on first send to each peer.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg.withDefaults()
	t := &TCP{
		cfg:      cfg,
		ln:       cfg.Listener,
		logf:     cfg.Logf,
		handlers: make(map[simnet.NodeID]Handler),
		peers:    make(map[string]*tcpPeer),
		conns:    make(map[net.Conn]bool),
		closed:   make(chan struct{}),
	}
	if t.logf == nil {
		t.logf = func(string, ...any) {}
	}
	if t.ln == nil && cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
	}
	if t.ln != nil {
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// Addr returns the actual listen address ("" when send-only); with a
// ":0" Listen address this is how callers learn the bound port.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Stats returns a snapshot of the traffic counters.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		SentFrames:     t.sentFrames.Load(),
		SentBytes:      t.sentBytes.Load(),
		RecvFrames:     t.recvFrames.Load(),
		RecvBytes:      t.recvBytes.Load(),
		Dropped:        t.dropped.Load(),
		QueueOverflows: t.overflows.Load(),
		Redials:        t.redials.Load(),
		Reconnects:     t.reconnects.Load(),
		WriteCalls:     t.writeCalls.Load(),
		ReadCalls:      t.readCalls.Load(),
	}
}

// RegisterMetrics exports the transport's counters on reg as live func
// collectors (sampled at snapshot time, no double bookkeeping) plus a
// per-peer queue-depth gauge and overflow counter labeled by peer
// address. Peers dialed after the call register themselves as they are
// created.
func (t *TCP) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("transport_sent_frames_total", t.sentFrames.Load)
	reg.CounterFunc("transport_sent_bytes_total", t.sentBytes.Load)
	reg.CounterFunc("transport_recv_frames_total", t.recvFrames.Load)
	reg.CounterFunc("transport_recv_bytes_total", t.recvBytes.Load)
	reg.CounterFunc("transport_dropped_total", t.dropped.Load)
	reg.CounterFunc("transport_queue_overflows_total", t.overflows.Load)
	reg.CounterFunc("transport_redials_total", t.redials.Load)
	reg.CounterFunc("transport_reconnects_total", t.reconnects.Load)
	reg.CounterFunc("transport_write_calls_total", t.writeCalls.Load)
	reg.CounterFunc("transport_read_calls_total", t.readCalls.Load)
	t.mu.Lock()
	t.reg = reg
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		registerPeerMetrics(reg, p)
	}
}

// registerPeerMetrics exports one peer's queue depth and overflow count.
// Queue depth reads len() on the outbound channel, which is safe from
// the snapshot goroutine.
func registerPeerMetrics(reg *obs.Registry, p *tcpPeer) {
	reg.GaugeFunc("transport_peer_queue_depth{peer=\""+p.addr+"\"}", func() int64 { return int64(len(p.ch)) })
	reg.CounterFunc("transport_peer_overflows_total{peer=\""+p.addr+"\"}", p.overflows.Load)
}

// RegisterHandler implements Transport.
func (t *TCP) RegisterHandler(id simnet.NodeID, h Handler) {
	t.mu.Lock()
	t.handlers[id] = h
	t.mu.Unlock()
}

// Send implements Transport. Frames to ids registered locally short-
// circuit to their handler without touching a socket.
func (t *TCP) Send(m simnet.Message) error {
	t.mu.RLock()
	h := t.handlers[m.To]
	shut := t.shut
	t.mu.RUnlock()
	if shut {
		t.dropped.Add(1)
		return nil
	}
	if h != nil {
		h(m)
		return nil
	}
	addr, ok := t.cfg.Peers[m.To]
	if !ok {
		return fmt.Errorf("transport: no route to node %d", m.To)
	}
	frame := make([]byte, 4, 4+256)
	frame, err := wire.EncodeMessage(frame, m)
	if err != nil {
		return err
	}
	if len(frame)-4 > maxFrame {
		return fmt.Errorf("transport: frame for node %d exceeds %d bytes", m.To, maxFrame)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	p, ok := t.peer(addr)
	if !ok { // shut down between the check above and now
		t.dropped.Add(1)
		return nil
	}
	select {
	case p.ch <- frame:
	default:
		t.noteOverflow(p) // full queue: shed, the protocol retransmits
	}
	return nil
}

// noteOverflow accounts one frame shed at a full per-peer queue. A dead
// or slow peer shows up in transport_peer_overflows_total{peer=...} (and
// in the node's periodic status line), not as per-frame log spam.
func (t *TCP) noteOverflow(p *tcpPeer) {
	t.dropped.Add(1)
	t.overflows.Add(1)
	p.overflows.Add(1)
}

func (t *TCP) peer(addr string) (*tcpPeer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shut {
		return nil, false
	}
	p := t.peers[addr]
	if p == nil {
		p = &tcpPeer{
			addr:  addr,
			ch:    make(chan []byte, t.cfg.QueueLen),
			burst: make([][]byte, 0, burstFrames),
			iov:   make([][]byte, 0, burstFrames),
		}
		t.peers[addr] = p
		if t.reg != nil {
			registerPeerMetrics(t.reg, p)
		}
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	return p, true
}

// writeLoop owns the outbound connection to one peer address. Each
// wake-up writes one burst: the frame it blocked for plus whatever else
// is already queued.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	pprof.Do(context.Background(), t.labels("write"), func(context.Context) {
		for {
			select {
			case <-t.closed:
				conn = t.flush(p, conn)
				return
			case frame := <-p.ch:
				p.burst = append(p.burst, frame)
			}
			p.fillBurst()
			conn = t.writeBurst(p, conn, time.Now().Add(writeTimeout))
		}
	})
}

// labels are the profiler labels of the transport's goroutines: the
// direction and the local listen address, which tells apart the nodes
// of an in-process cluster.
func (t *TCP) labels(dir string) pprof.LabelSet {
	return pprof.Labels("transport", dir, "local", t.Addr())
}

// fillBurst appends to p.burst, without blocking, whatever frames are
// already queued, until the queue is empty or the burst reaches
// burstFrames or burstBytes.
func (p *tcpPeer) fillBurst() {
	size := 0
	for _, f := range p.burst {
		size += len(f)
	}
	for len(p.burst) < burstFrames && size < burstBytes {
		select {
		case f := <-p.ch:
			p.burst = append(p.burst, f)
			size += len(f)
		default:
			return
		}
	}
}

// writeBurst writes p.burst with one vectored write and one deadline,
// dialing if necessary, then empties it. It returns the live connection
// (nil after a failure; the burst is then dropped — AHL's retransmission
// layers own reliability). Every frame of the burst is counted once:
// sent if the whole burst went out, dropped otherwise.
func (t *TCP) writeBurst(p *tcpPeer, conn net.Conn, deadline time.Time) net.Conn {
	defer func() {
		clear(p.burst)
		p.burst = p.burst[:0]
	}()
	if conn != nil && p.dead.Load() {
		// The EOF watchdog saw the peer close this connection (its
		// process exited or restarted). Writing would only fill a kernel
		// buffer nobody reads — redial instead.
		conn.Close()
		conn = nil
	}
	if conn == nil {
		conn = t.dial(p.addr)
		if conn == nil {
			t.dropped.Add(uint64(len(p.burst)))
			return nil
		}
		if p.hadConn {
			t.reconnects.Add(1)
		}
		p.hadConn = true
		t.watchConn(p, conn)
	}
	err := t.writev(p, conn, deadline)
	if err == nil {
		return conn
	}
	conn.Close()
	// One immediate fresh dial before shedding the burst: a write failure
	// on an established connection usually means the peer process
	// restarted (its old socket is dead but its listener is back), e.g.
	// consecutive ahlctl invocations reusing one client id. A single
	// non-backoff dial re-delivers the whole burst in that case (frames
	// the old connection already carried arrive twice, which every
	// protocol tolerates); a peer that is genuinely gone sheds the burst.
	if c2 := t.dialOnce(p.addr); c2 != nil {
		t.reconnects.Add(1)
		t.watchConn(p, c2)
		if t.writev(p, c2, deadline) == nil {
			return c2
		}
		c2.Close()
	}
	t.logf("transport: write %s: %v", p.addr, err)
	t.dropped.Add(uint64(len(p.burst)))
	return nil
}

// writev writes the whole of p.burst to conn with one net.Buffers write
// (writev(2) on a TCP connection) and counts it as sent on success.
// net.Buffers consumes the slice it writes from, so it writes from p.iov,
// a copy of the headers, and p.burst stays whole for a re-send.
func (t *TCP) writev(p *tcpPeer, conn net.Conn, deadline time.Time) error {
	p.iov = append(p.iov[:0], p.burst...)
	bufs := net.Buffers(p.iov)
	conn.SetWriteDeadline(deadline)
	t.writeCalls.Add(1)
	n, err := bufs.WriteTo(conn)
	clear(p.iov)
	if err != nil {
		return err
	}
	t.sentFrames.Add(uint64(len(p.burst)))
	t.sentBytes.Add(uint64(n))
	return nil
}

// watchConn marks conn as p's current connection and starts its EOF
// watchdog: outbound connections are write-only (the peer never sends
// data back on them), so a Read can only return when the peer closes or
// resets — the watchdog then flags the connection dead so the next
// writeFrame redials immediately instead of losing a frame to the closed
// socket's kernel buffer. The generation check keeps a stale watchdog
// from condemning a successor connection.
func (t *TCP) watchConn(p *tcpPeer, conn net.Conn) {
	gen := p.gen.Add(1)
	p.dead.Store(false)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var buf [1]byte
		conn.Read(buf[:])
		if p.gen.Load() == gen {
			p.dead.Store(true)
		}
	}()
}

// dialOnce attempts a single dial with no backoff loop; nil on failure
// or shutdown.
func (t *TCP) dialOnce(addr string) net.Conn {
	select {
	case <-t.closed:
		return nil
	default:
	}
	conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn
}

// dial connects to addr, backing off exponentially between attempts until
// it succeeds or the transport closes (then nil).
func (t *TCP) dial(addr string) net.Conn {
	backoff := t.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		select {
		case <-t.closed:
			return nil
		default:
		}
		if attempt > 0 {
			t.redials.Add(1)
		}
		conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn
		}
		t.logf("transport: dial %s: %v (retry in %v)", addr, err, backoff)
		select {
		case <-t.closed:
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > t.cfg.BackoffMax {
			backoff = t.cfg.BackoffMax
		}
	}
}

// flush drains whatever is already queued at shutdown through the burst
// writer, every write bounded by one FlushTimeout deadline; frames that
// cannot be written by then are dropped. The transport is closed, so a
// failed or missing connection is not redialed: its bursts are dropped.
func (t *TCP) flush(p *tcpPeer, conn net.Conn) net.Conn {
	deadline := time.Now().Add(t.cfg.FlushTimeout)
	for {
		p.fillBurst()
		if len(p.burst) == 0 {
			return conn
		}
		conn = t.writeBurst(p, conn, deadline)
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	pprof.Do(context.Background(), t.labels("read"), func(context.Context) {
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			if t.shut {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.conns[conn] = true
			t.mu.Unlock()
			t.wg.Add(1)
			go t.readConn(conn) // inherits the read labels
		}
	})
}

// readConn decodes frames from one inbound connection until it closes.
// Reads go through a bufio.Reader, so one read(2) fetches as many frames
// as the kernel holds, and frames up to reuseFrameMax decode from one
// receive buffer the connection reuses.
func (t *TCP) readConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReaderSize(countingReader{conn, &t.readCalls}, readBufSize)
	var lenBuf [4]byte
	var reuse []byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			t.logf("transport: bad frame length %d from %s", n, conn.RemoteAddr())
			return
		}
		var buf []byte
		if n <= reuseFrameMax {
			if cap(reuse) < int(n) {
				reuse = make([]byte, n)
			}
			buf = reuse[:n]
		} else {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		m, err := wire.DecodeMessage(buf)
		if err != nil {
			// A frame that fails to decode means the stream is garbage or
			// the peer speaks another version; resynchronization is not
			// possible mid-stream, so drop the connection.
			t.logf("transport: decode from %s: %v", conn.RemoteAddr(), err)
			return
		}
		t.recvFrames.Add(1)
		t.recvBytes.Add(uint64(4 + len(buf)))
		t.mu.RLock()
		h := t.handlers[m.To]
		t.mu.RUnlock()
		if h == nil {
			t.dropped.Add(1)
			continue
		}
		h(m)
	}
}

// countingReader counts the reads issued on an inbound connection.
type countingReader struct {
	r     io.Reader
	calls *atomic.Uint64
}

func (c countingReader) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.r.Read(p)
}

// Close implements Transport: stop accepting, close inbound connections,
// flush outbound queues on the FlushTimeout, and wait for all goroutines.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.shut {
		t.mu.Unlock()
		return nil
	}
	t.shut = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.closed)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
