// Command drive-transport pushes frames from one transport.TCP to
// another over loopback from a single sender: vote-sized frames for the
// frame rate, 100-transaction pre-prepares for the byte rate. The rate
// is what the receiver's handler saw.
package main

import (
	"flag"
	"strings"
	"sync/atomic"
	"time"

	"repro/benchmark/drives/drive"
	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func main() {
	flag.Parse()
	var small, large simnet.Message
	for _, m := range pbft.WireSamples() {
		switch m.Type {
		case "pbft/prepare":
			small = m
		case pbft.MsgRequest:
			large = m
		}
	}
	if small.Type == "" || large.Type == "" {
		panic("transport: pbft.WireSamples has no vote or request sample")
	}
	// No public constructor builds a pre-prepare, so the large frame is a
	// request whose arguments carry 100 transactions' worth of bytes.
	tx := large.Payload.(chain.Tx)
	tx.Args = nil
	for i := 0; i < 100; i++ {
		tx.Args = append(tx.Args, "k_12345", strings.Repeat("v", 64))
	}
	large.Payload = tx

	var got atomic.Uint64
	recv, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		panic(err)
	}
	defer recv.Close()
	recv.RegisterHandler(2, func(simnet.Message) { got.Add(1) })
	send, err := transport.NewTCP(transport.TCPConfig{Peers: map[simnet.NodeID]string{2: recv.Addr()}})
	if err != nil {
		panic(err)
	}
	defer send.Close()

	run := func(m simnet.Message) (frames, bytes uint64, el time.Duration) {
		m.From, m.To = 1, 2
		before, bytesBefore := got.Load(), send.Stats().SentBytes
		var submitted uint64
		start := time.Now()
		drive.Loop(func() {
			// A full outbound queue drops, so the sender stays within half
			// a queue of the receiver, as a protocol's flow control would.
			for submitted-(got.Load()-before) >= 512 {
				time.Sleep(20 * time.Microsecond)
			}
			if err := send.Send(m); err != nil {
				panic(err)
			}
			submitted++
		})
		for deadline := time.Now().Add(time.Second); got.Load()-before < submitted && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		return got.Load() - before, send.Stats().SentBytes - bytesBefore, time.Since(start)
	}
	frames, _, el := run(small)
	drive.Report("transport.drive_small_frames_per_s", float64(frames)/el.Seconds(), "1/s", int(frames))
	frames, bytes, el := run(large)
	drive.Report("transport.drive_large_mb_per_s", float64(bytes)/1e6/el.Seconds(), "MB/s", int(frames))
}
