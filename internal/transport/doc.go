// Package transport abstracts how protocol messages move between nodes,
// so the same consensus/transaction stack runs over the discrete-event
// simulator and over real sockets.
//
// A Transport delivers simnet.Message values addressed by node id:
//
//   - Sim adapts an existing simnet.Network. It adds nothing on top of the
//     simulator's own routing — experiments that use simnet directly stay
//     byte-identical — and exists so runtime-agnostic code (node assembly,
//     tools, tests) can be written once against the Transport interface.
//
//   - TCP carries frames over real TCP connections: each message is
//     encoded with internal/wire, length-prefixed, and written to a
//     per-peer outbound queue whose writer goroutine dials lazily,
//     redials with exponential backoff, and drains on graceful shutdown.
//     Peer addresses come from a static topology (see core.ClusterConfig).
//
// The TCP transport pays for syscalls per burst of frames, not per frame,
// with no timer and no setting:
//
//   - Write side: after blocking for one queued frame, a peer's writer
//     takes whatever else is already queued, without waiting, up to 64
//     frames or 256 KiB, and writes the burst with one vectored write
//     (net.Buffers, writev(2)) under one deadline. Frames are not copied,
//     and the burst's slots are cleared once written. A failed burst is
//     re-sent whole once on a fresh connection; if that fails too, every
//     frame of the burst counts as dropped. Close drains the queues
//     through the same burst writer, bounded by FlushTimeout.
//   - Read side: each inbound connection reads through a 16 KiB
//     bufio.Reader, so one read(2) fetches as many frames as the kernel
//     holds. Frames up to 64 KiB decode from one receive buffer the
//     connection reuses (wire.Decoder copies everything it returns);
//     larger frames, such as snapshots, get their own allocation.
//
// TCPStats.WriteCalls and ReadCalls (transport_write_calls_total and
// transport_read_calls_total) count those calls beside the frame counters,
// so frames per call shows the batching achieved. The transport's
// goroutines carry the CPU-profile labels transport=read|write and
// local=<listen address>.
//
// The AHL protocol family is designed for lossy, partially-synchronous
// networks — every layer retransmits with backoff — so the TCP transport
// deliberately keeps fire-and-forget semantics: a frame that cannot be
// queued or written (peer down, queue full, mid-reconnect) is dropped and
// counted, never buffered unboundedly or blocked on.
package transport
