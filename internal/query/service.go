package query

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Page-size bounds: the server clamps the client's Limit so one chunk is
// always bounded regardless of what the request asks for.
const (
	DefaultPageLimit = 256
	MaxPageLimit     = 4096
)

// answerCost is the simulated CPU charge for evaluating one sub-query
// page; chunkCost for absorbing one chunk at the gateway. Both are flat:
// page size is bounded, and the real per-row work is what the live path
// measures.
const (
	answerCost = 20 * time.Microsecond
	chunkCost  = 10 * time.Microsecond
)

// Answer evaluates one sub-query page against the store and returns the
// chunk to send back. It reads only through immutable height-pinned
// views and the commit-record index — no 2PL interaction, no blocking of
// the execution path — so it is safe to call from any goroutine (the live
// server answers on transport goroutines).
func Answer(st *chain.Store, req *Request) *Chunk {
	ch := &Chunk{QID: req.QID, Sub: req.Sub}
	switch req.Kind {
	case KindPin:
		v, ok := st.LatestSealed()
		if !ok {
			ch.Err = ErrCodeUnknown
			return ch
		}
		// Through ReaderAt, so that the pin counts as a read and the
		// store's retention rule keeps it until the first page arrives.
		if _, err := st.ReaderAt(v); err != nil {
			ch.Err = errCode(err)
			return ch
		}
		ch.Version = v
	case KindResolve:
		ch.Version = req.Pin
		ch.Resolved = make([]Resolution, 0, len(req.Txids))
		for _, txid := range req.Txids {
			v, ok := st.CommittedAt(txid)
			ch.Resolved = append(ch.Resolved, Resolution{
				Txid:      txid,
				Committed: ok && v <= req.Pin,
				Version:   v,
			})
		}
	case KindScan:
		r, err := st.ReaderAt(req.Pin)
		if err != nil {
			ch.Err = errCode(err)
			return ch
		}
		ch.Version = r.Version()
		answerScan(r, req, ch)
	default:
		ch.Err = ErrCodeBad
	}
	return ch
}

func errCode(err error) uint8 {
	switch {
	case err == nil:
		return ErrCodeNone
	case errors.Is(err, chain.ErrHeightPruned):
		return ErrCodePruned
	case errors.Is(err, chain.ErrHeightUnknown):
		return ErrCodeUnknown
	}
	return ErrCodeBad
}

// answerScan runs one page of the scan pipeline: Scan → page window →
// (Filter → fold | staged-delta projection).
func answerScan(r *chain.Reader, req *Request, ch *Chunk) {
	limit := req.Limit
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	page := &pager{s: Scan(r, req.Start, req.End), budget: limit}

	switch req.Proj {
	case ProjKV:
		s := Filter(page, func(row Row) bool { return req.Pred.Match(row.V) })
		switch req.Agg {
		case AggNone:
			for {
				row, ok := s.Next()
				if !ok {
					break
				}
				// Copy: row values alias the reader's storage, the chunk
				// outlives this call.
				ch.Rows = append(ch.Rows, Row{K: row.K, V: append([]byte(nil), row.V...)})
			}
		case AggCount:
			ch.Count = Count(s)
		case AggSum:
			ch.Sum, ch.Count = Sum(s)
		case AggGroupSum:
			ch.Groups = GroupSum(s, req.GroupLen)
		default:
			ch.Err = ErrCodeBad
			return
		}
	case ProjStagedDelta:
		for {
			row, ok := page.Next()
			if !ok {
				break
			}
			if sd, ok := stagedDeltaOf(r, row); ok {
				ch.Deltas = append(ch.Deltas, sd)
			}
		}
	default:
		ch.Err = ErrCodeBad
		return
	}
	ch.Next = page.resume
}

// stagedDeltaOf interprets one 2PL staging entry as a pending numeric
// delta against the committed value at the same pin. Non-stage keys,
// tombstones, and non-numeric values yield ok=false.
func stagedDeltaOf(r *chain.Reader, row Row) (StagedDelta, bool) {
	txid, key, ok := chaincode.ParseStageKey(row.K)
	if !ok {
		return StagedDelta{}, false
	}
	stagedRaw, deleted, ok := chaincode.DecodeStagedValue(row.V)
	if !ok || deleted {
		return StagedDelta{}, false
	}
	staged, err := strconv.ParseInt(string(stagedRaw), 10, 64)
	if err != nil {
		return StagedDelta{}, false
	}
	var current int64
	if cur, found := r.GetRef(key); found {
		c, err := strconv.ParseInt(string(cur), 10, 64)
		if err != nil {
			return StagedDelta{}, false
		}
		current = c
	}
	return StagedDelta{Txid: txid, Key: key, Delta: staged - current}, true
}

// pager bounds one page: it passes through at most budget rows, then
// peeks one more to learn the resume key for the next page (that row is
// re-read, not processed, next page — stateless paging).
type pager struct {
	s      Stream
	budget int
	resume string
}

func (p *pager) Next() (Row, bool) {
	if p.budget == 0 {
		if row, ok := p.s.Next(); ok {
			p.resume = row.K
		}
		return Row{}, false
	}
	row, ok := p.s.Next()
	if !ok {
		return Row{}, false
	}
	p.budget--
	return row, true
}

// Service answers sub-queries on a simulated shard replica. It wraps the
// endpoint's current handler (installed after the txn.Manager, so it is
// the outermost layer) and passes every non-query message through
// untouched — attaching it to a node changes nothing about existing
// traffic.
type Service struct {
	store *chain.Store
	ep    *simnet.Endpoint
	inner simnet.Handler
}

// AttachService interposes a query service on the endpoint's handler
// chain, serving from store.
func AttachService(ep *simnet.Endpoint, store *chain.Store) *Service {
	s := &Service{store: store, ep: ep, inner: ep.Handler()}
	ep.SetHandler(s)
	return s
}

// Cost implements simnet.Handler.
func (s *Service) Cost(m simnet.Message) time.Duration {
	if m.Type == MsgQueryRequest {
		return answerCost
	}
	if s.inner != nil {
		return s.inner.Cost(m)
	}
	return 0
}

// Handle implements simnet.Handler.
func (s *Service) Handle(m simnet.Message) {
	if m.Type != MsgQueryRequest {
		if s.inner != nil {
			s.inner.Handle(m)
		}
		return
	}
	req, ok := m.Payload.(*Request)
	if !ok {
		return
	}
	ch := Answer(s.store, req)
	s.ep.Send(simnet.Message{
		To:      m.From,
		Class:   simnet.ClassRequest,
		Type:    MsgQueryChunk,
		Payload: ch,
		Size:    wire.PayloadSize(MsgQueryChunk, ch),
	})
}
