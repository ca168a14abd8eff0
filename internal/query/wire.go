package query

import (
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Message types of the scatter-gather read protocol.
const (
	MsgQueryRequest = "query/request"
	MsgQueryChunk   = "query/chunk"
)

// Chunk error codes (kept as a wire byte, mapped to typed errors at the
// gateway).
const (
	ErrCodeNone uint8 = iota
	// ErrCodePruned: the pin fell below the shard's retention floor (the
	// stable checkpoint advanced past it); re-pin and retry.
	ErrCodePruned
	// ErrCodeUnknown: the pin is not a sealed version on this replica
	// (or nothing is sealed yet).
	ErrCodeUnknown
	// ErrCodeBad: malformed request.
	ErrCodeBad
)

// Request is one sub-query sent to a shard replica. Paging is stateless:
// every page carries the full Spec plus the resume Start, so the server
// holds no cursor state between chunks.
type Request struct {
	QID uint64 // gateway-chosen query id
	Sub uint32 // sub-query index (the target's slot in the scatter)
	Spec
	Pin   uint64   // sealed version to read at (KindScan/KindResolve)
	Limit int      // max entries examined this page (server-clamped)
	Txids []string // KindResolve: transactions to look up
}

// Chunk is one bounded page of results. Next carries the resume key for
// the following page; empty means the sub-query is exhausted.
type Chunk struct {
	QID      uint64
	Sub      uint32
	Version  uint64 // KindPin: latest sealed; otherwise echo of the pin
	Next     string
	Rows     []Row
	Deltas   []StagedDelta
	Count    uint64
	Sum      int64
	Groups   []Group
	Resolved []Resolution
	Err      uint8
}

func init() {
	wire.Register(MsgQueryRequest, wire.Codec{
		Encode: func(e *wire.Encoder, p any) {
			m := p.(*Request)
			e.Uvarint(m.QID)
			e.Uvarint(uint64(m.Sub))
			e.Byte(byte(m.Kind))
			e.Uvarint(m.Pin)
			e.String(m.Start)
			e.String(m.End)
			e.Byte(byte(m.Pred.Op))
			e.Duration(m.Pred.Val)
			e.Byte(byte(m.Proj))
			e.Byte(byte(m.Agg))
			e.Int(m.GroupLen)
			e.Int(m.Limit)
			wire.PutStrings(e, m.Txids)
		},
		Decode: func(d *wire.Decoder) any {
			m := &Request{QID: d.Uvarint(), Sub: uint32(d.Uvarint())}
			m.Kind = Kind(d.Byte())
			m.Pin = d.Uvarint()
			m.Start = d.String()
			m.End = d.String()
			m.Pred.Op = PredOp(d.Byte())
			m.Pred.Val = d.Duration()
			m.Proj = Proj(d.Byte())
			m.Agg = Agg(d.Byte())
			m.GroupLen = d.Int()
			m.Limit = d.Int()
			m.Txids = wire.Strings(d)
			return m
		},
	})

	wire.Register(MsgQueryChunk, wire.Codec{
		Encode: func(e *wire.Encoder, p any) {
			m := p.(*Chunk)
			e.Uvarint(m.QID)
			e.Uvarint(uint64(m.Sub))
			e.Uvarint(m.Version)
			e.String(m.Next)
			e.Byte(m.Err)
			e.Uvarint(uint64(len(m.Rows)))
			for _, r := range m.Rows {
				e.String(r.K)
				e.ByteSlice(r.V)
			}
			e.Uvarint(uint64(len(m.Deltas)))
			for _, sd := range m.Deltas {
				e.String(sd.Txid)
				e.String(sd.Key)
				e.Duration(sd.Delta)
			}
			e.Uvarint(m.Count)
			e.Duration(m.Sum)
			e.Uvarint(uint64(len(m.Groups)))
			for _, g := range m.Groups {
				e.String(g.Key)
				e.Duration(g.Sum)
				e.Uvarint(g.Count)
			}
			e.Uvarint(uint64(len(m.Resolved)))
			for _, r := range m.Resolved {
				e.String(r.Txid)
				e.Bool(r.Committed)
				e.Uvarint(r.Version)
			}
		},
		Decode: func(d *wire.Decoder) any {
			m := &Chunk{QID: d.Uvarint(), Sub: uint32(d.Uvarint())}
			m.Version = d.Uvarint()
			m.Next = d.String()
			m.Err = d.Byte()
			n := d.Count(2)
			m.Rows = make([]Row, 0, wire.CapHint(n))
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Rows = append(m.Rows, Row{K: d.String(), V: d.ByteSlice()})
			}
			n = d.Count(3)
			m.Deltas = make([]StagedDelta, 0, wire.CapHint(n))
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Deltas = append(m.Deltas, StagedDelta{Txid: d.String(), Key: d.String(), Delta: d.Duration()})
			}
			m.Count = d.Uvarint()
			m.Sum = d.Duration()
			n = d.Count(3)
			m.Groups = make([]Group, 0, wire.CapHint(n))
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Groups = append(m.Groups, Group{Key: d.String(), Sum: d.Duration(), Count: d.Uvarint()})
			}
			n = d.Count(3)
			m.Resolved = make([]Resolution, 0, wire.CapHint(n))
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Resolved = append(m.Resolved, Resolution{Txid: d.String(), Committed: d.Bool(), Version: d.Uvarint()})
			}
			return m
		},
	})
}

// WireSamples returns one populated message per query wire type; test
// support for the wire package's round-trip and fuzz corpus.
func WireSamples() []simnet.Message {
	msg := func(typ string, payload any) simnet.Message {
		return simnet.Message{From: 12, To: 3, Class: simnet.ClassRequest, Type: typ, Payload: payload}
	}
	return []simnet.Message{
		msg(MsgQueryRequest, &Request{
			QID: 7, Sub: 1,
			Spec: Spec{Kind: KindScan, Start: "c_", End: "c`",
				Pred: Pred{Op: PredGe, Val: 100}, Proj: ProjKV, Agg: AggSum, GroupLen: 2},
			Pin: 42, Limit: 256, Txids: []string{"ctl1-9"},
		}),
		msg(MsgQueryChunk, &Chunk{
			QID: 7, Sub: 1, Version: 42, Next: "c_acc7",
			Rows:   []Row{{K: "c_acc1", V: []byte("1000000")}},
			Deltas: []StagedDelta{{Txid: "ctl1-9", Key: "c_acc1", Delta: -25}},
			Count:  1, Sum: 1000000,
			Groups:   []Group{{Key: "c_", Sum: 1000000, Count: 1}},
			Resolved: []Resolution{{Txid: "ctl1-9", Committed: true, Version: 41}},
		}),
	}
}
