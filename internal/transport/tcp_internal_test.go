package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/simnet"
	"repro/internal/txn"
	"repro/internal/wire"
)

// wireSamples returns one populated message per registered wire type,
// addressed to node 2.
func wireSamples() []simnet.Message {
	var out []simnet.Message
	out = append(out, pbft.WireSamples()...)
	out = append(out, txn.WireSamples()...)
	out = append(out, sharding.WireSamples()...)
	out = append(out, query.WireSamples()...)
	for i := range out {
		out[i].From, out[i].To = 1, 2
	}
	return out
}

// streamBodies encodes every sample plus requests sized to cross the
// reused receive buffer's growth steps and its reuseFrameMax cap, so a
// stream exercises both the reused buffer and the per-frame allocation
// in either order.
func streamBodies(t testing.TB) [][]byte {
	msgs := wireSamples()
	for _, n := range []int{3 << 10, reuseFrameMax - 200, reuseFrameMax + 1<<10, 40 << 10} {
		tx := chain.Tx{ID: uint64(n), Chaincode: "kvstore", Fn: "put", Args: []string{"k", strings.Repeat("v", n)}}
		msgs = append(msgs, simnet.Message{From: 1, To: 2, Class: simnet.ClassRequest, Type: pbft.MsgRequest, Payload: tx})
	}
	msgs = append(msgs, wireSamples()...)
	bodies := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := wire.EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		bodies[i] = b
	}
	return bodies
}

// FuzzFrameStreamSplits feeds an inbound connection a stream of frames cut
// at arbitrary byte boundaries — inside length prefixes too — and asserts
// that readConn delivers the same frames in order. net.Pipe hands the
// reader each chunk exactly as written, so the chunking reaches the
// buffered reader unchanged. Every delivered message is re-encoded only
// after the whole stream is read, so a message still pointing into the
// reused receive buffer would show up as a mismatch.
func FuzzFrameStreamSplits(f *testing.F) {
	f.Add([]byte{0})          // one byte at a time
	f.Add([]byte{1, 2, 0})    // chunks of 2, 3, 1 bytes: cuts inside every prefix
	f.Add([]byte{3, 254, 17}) // small, large and odd chunks
	f.Add([]byte{255})        // 256-byte chunks
	bodies := streamBodies(f)
	var stream []byte
	for _, b := range bodies {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(b)))
		stream = append(stream, b...)
	}
	f.Fuzz(func(t *testing.T, splits []byte) {
		if len(splits) == 0 {
			splits = []byte{0}
		}
		tr, err := NewTCP(TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		got := make(chan simnet.Message, len(bodies))
		tr.RegisterHandler(2, func(m simnet.Message) { got <- m })
		client, server := net.Pipe()
		tr.wg.Add(1)
		go tr.readConn(server)

		// A chunk length is one split byte plus one, except that a split
		// byte above 200 stands for a run of whole 1 KiB blocks, so large
		// frames arrive in a few chunks instead of tens of thousands.
		for off, i := 0, 0; off < len(stream); i++ {
			n := int(splits[i%len(splits)]) + 1
			if n > 200 {
				n = (n - 200) << 10
			}
			n = min(n, len(stream)-off)
			if _, err := client.Write(stream[off : off+n]); err != nil {
				t.Fatalf("write at offset %d: %v", off, err)
			}
			off += n
		}
		var rx []simnet.Message
		for range bodies {
			select {
			case m := <-got:
				rx = append(rx, m)
			case <-time.After(10 * time.Second):
				t.Fatalf("delivered %d of %d frames", len(rx), len(bodies))
			}
		}
		client.Close()
		for i, m := range rx {
			b, err := wire.EncodeMessage(nil, m)
			if err != nil {
				t.Fatalf("frame %d (%s): re-encode: %v", i, m.Type, err)
			}
			if !bytes.Equal(b, bodies[i]) {
				t.Fatalf("frame %d (%s) differs from the frame sent", i, m.Type)
			}
		}
	})
}

// TestDecodedMessagesOwnTheirBytes guards the reused receive buffer: for
// every wire type, a message decoded from a buffer that is then
// overwritten still re-encodes to the original bytes, so nothing decoded
// aliases the frame it came from.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	for _, m := range wireSamples() {
		orig, err := wire.EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		buf := append([]byte(nil), orig...)
		dec, err := wire.DecodeMessage(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		for i := range buf {
			buf[i] = 0xa5
		}
		again, err := wire.EncodeMessage(nil, dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", m.Type, err)
		}
		if !bytes.Equal(again, orig) {
			t.Errorf("%s: decoded message changed when its source buffer was overwritten", m.Type)
		}
	}
}

// failingConn accepts budget bytes, then fails every write: a connection
// that breaks in the middle of a burst.
type failingConn struct {
	net.Conn // nil: only the methods below are called
	budget   int
	wrote    int
}

func (c *failingConn) Write(p []byte) (int, error) {
	n := min(len(p), c.budget-c.wrote)
	c.wrote += n
	if n < len(p) {
		return n, errors.New("connection reset mid-burst")
	}
	return n, nil
}
func (c *failingConn) Close() error                     { return nil }
func (c *failingConn) SetWriteDeadline(time.Time) error { return nil }

// queueBurst fills p.burst with n framed samples and returns them.
func queueBurst(t *testing.T, p *tcpPeer, n int) [][]byte {
	t.Helper()
	var frames [][]byte
	for i, m := range wireSamples()[:n] {
		body, err := wire.EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		frames = append(frames, append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	}
	p.burst = append(p.burst[:0], frames...)
	return frames
}

// TestBurstFailingMidwayCountsEachFrameOnce breaks a connection partway
// through a burst's vectored write. With the peer gone the whole burst is
// dropped; with the peer's listener back, the one immediate redial
// re-sends the whole burst intact. Either way every frame is counted
// exactly once, as sent or as dropped.
func TestBurstFailingMidwayCountsEachFrameOnce(t *testing.T) {
	const n = 6
	t.Run("peer gone", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close() // the redial is refused
		tr, err := NewTCP(TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		p := &tcpPeer{addr: addr, hadConn: true}
		frames := queueBurst(t, p, n)
		conn := &failingConn{budget: len(frames[0]) + len(frames[1]) + 3}
		if c := tr.writeBurst(p, conn, time.Now().Add(time.Second)); c != nil {
			t.Fatal("writeBurst returned a connection after the burst failed")
		}
		s := tr.Stats()
		if s.SentFrames != 0 || s.Dropped != n || s.SentBytes != 0 {
			t.Fatalf("sent %d frames (%d B), dropped %d; want 0 sent, %d dropped", s.SentFrames, s.SentBytes, s.Dropped, n)
		}
		if s.WriteCalls != 1 {
			t.Fatalf("write calls %d, want 1", s.WriteCalls)
		}
		if len(p.burst) != 0 {
			t.Fatalf("burst not emptied: %d frames left", len(p.burst))
		}
	})
	t.Run("peer back", func(t *testing.T) {
		a, b := newRawPair(t)
		got := make(chan simnet.Message, n)
		b.RegisterHandler(2, func(m simnet.Message) { got <- m })
		p := &tcpPeer{addr: b.Addr(), hadConn: true}
		frames := queueBurst(t, p, n)
		var total uint64
		for _, f := range frames {
			total += uint64(len(f))
		}
		conn := &failingConn{budget: len(frames[0]) + 2}
		c := a.writeBurst(p, conn, time.Now().Add(5*time.Second))
		if c == nil {
			t.Fatal("the redialed connection was not kept")
		}
		defer c.Close()
		s := a.Stats()
		if s.SentFrames != n || s.Dropped != 0 || s.SentBytes != total {
			t.Fatalf("sent %d frames (%d B), dropped %d; want %d sent (%d B), 0 dropped", s.SentFrames, s.SentBytes, s.Dropped, n, total)
		}
		if s.WriteCalls != 2 {
			t.Fatalf("write calls %d, want 2 (the failed burst and its re-send)", s.WriteCalls)
		}
		for i, f := range frames {
			select {
			case m := <-got:
				body, err := wire.EncodeMessage(nil, m)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, f[4:]) {
					t.Fatalf("re-sent frame %d (%s) arrived altered", i, m.Type)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("re-sent frame %d never arrived", i)
			}
		}
	})
}

// newRawPair starts a send-only transport and a listening one.
func newRawPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	b, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTCP(TCPConfig{})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}
