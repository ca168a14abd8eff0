// Command drive-query times query.Answer on a sealed 20 000-key store:
// one 256-row page of raw rows, and one 256-row page folded into a sum
// on the shard side.
package main

import (
	"flag"
	"fmt"

	"repro/benchmark/drives/drive"
	"repro/internal/chain"
	"repro/internal/query"
)

const (
	keys = 20000
	page = 256
)

func main() {
	flag.Parse()
	st := chain.NewStore()
	ws := make(chain.WriteSet, keys)
	for i := range ws {
		ws[i] = chain.Write{Key: fmt.Sprintf("c_a%05d", i), Value: []byte("1000000")}
	}
	st.Apply(ws)
	st.Seal()
	pin, _ := st.LatestSealed()

	for _, c := range []struct {
		metric string
		agg    query.Agg
	}{{"query.drive_answer_us.kv_page", query.AggNone}, {"query.drive_answer_us.sum_page", query.AggSum}} {
		start := "c_"
		d, n := drive.Loop(func() {
			ch := query.Answer(st, &query.Request{QID: 1, Pin: pin, Limit: page,
				Spec: query.Spec{Kind: query.KindScan, Start: start, End: chain.PrefixEnd("c_"), Proj: query.ProjKV, Agg: c.agg}})
			if ch.Err != query.ErrCodeNone || (c.agg == query.AggNone && len(ch.Rows) == 0) || (c.agg == query.AggSum && ch.Count == 0) {
				panic(fmt.Sprintf("query: page at %q: err %d, %d rows, count %d", start, ch.Err, len(ch.Rows), ch.Count))
			}
			if start = ch.Next; start == "" {
				start = "c_" // wrap: walk the range page by page
			}
		})
		drive.Us(c.metric, d, n)
	}
}
