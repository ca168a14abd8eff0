package query

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func storeWith(kv map[string]string) *chain.Store {
	s := chain.NewStore()
	var ws chain.WriteSet
	for k, v := range kv {
		ws = append(ws, chain.Write{Key: k, Value: []byte(v)})
	}
	s.Apply(ws)
	s.Seal()
	return s
}

func TestOperators(t *testing.T) {
	s := storeWith(map[string]string{
		"c_a": "10", "c_b": "20", "c_c": "junk", "s_a": "5", "z": "1",
	})
	r := s.Head()

	rows := 0
	for st := Scan(r, "c_", chain.PrefixEnd("c_")); ; {
		if _, ok := st.Next(); !ok {
			break
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("scan rows %d, want 3", rows)
	}

	sum, n := Sum(Filter(Scan(r, "c_", chain.PrefixEnd("c_")), func(row Row) bool {
		return Pred{Op: PredGe, Val: 15}.Match(row.V)
	}))
	if sum != 20 || n != 1 {
		t.Fatalf("filtered sum %d/%d, want 20/1", sum, n)
	}

	proj := Project(Scan(r, "s_", chain.PrefixEnd("s_")), func(row Row) Row {
		return Row{K: row.K, V: append([]byte("x"), row.V...)}
	})
	if row, ok := proj.Next(); !ok || string(row.V) != "x5" {
		t.Fatalf("project gave %q", row.V)
	}

	groups := GroupSum(Scan(r, "", ""), 2)
	// Groups: "c_" (10+20, 3 rows incl. junk), "s_" (5), "z" (1).
	if len(groups) != 3 || groups[0].Key != "c_" || groups[0].Sum != 30 || groups[0].Count != 3 {
		t.Fatalf("groups = %+v", groups)
	}

	merged := Merge(Scan(r, "c_", chain.PrefixEnd("c_")), Scan(r, "s_", chain.PrefixEnd("s_")))
	var keys []string
	for {
		row, ok := merged.Next()
		if !ok {
			break
		}
		keys = append(keys, row.K)
	}
	want := []string{"c_a", "c_b", "c_c", "s_a"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("merge order %v, want %v", keys, want)
	}
}

func TestMergeInterleavesOrdered(t *testing.T) {
	a := storeWith(map[string]string{"a": "1", "c": "3", "e": "5"}).Head()
	b := storeWith(map[string]string{"b": "2", "d": "4"}).Head()
	m := Merge(Scan(a, "", ""), Scan(b, "", ""))
	var got []string
	for {
		row, ok := m.Next()
		if !ok {
			break
		}
		got = append(got, row.K)
	}
	if fmt.Sprint(got) != "[a b c d e]" {
		t.Fatalf("merge = %v", got)
	}
}

func TestAnswerPaging(t *testing.T) {
	s := chain.NewStore()
	var ws chain.WriteSet
	for i := 0; i < 100; i++ {
		ws = append(ws, chain.Write{Key: fmt.Sprintf("k%03d", i), Value: []byte("1")})
	}
	s.Apply(ws)
	s.Seal()
	pin, _ := s.LatestSealed()

	var total uint64
	start := ""
	pages := 0
	for {
		ch := Answer(s, &Request{
			Spec: Spec{Kind: KindScan, Start: start, Proj: ProjKV, Agg: AggCount},
			Pin:  pin, Limit: 30,
		})
		if ch.Err != ErrCodeNone {
			t.Fatalf("page err %d", ch.Err)
		}
		total += ch.Count
		pages++
		if ch.Next == "" {
			break
		}
		start = ch.Next
	}
	if total != 100 || pages != 4 {
		t.Fatalf("paged count %d over %d pages, want 100 over 4", total, pages)
	}

	// Pruned pins answer typed, not empty. The pages above read the pin,
	// so the first SetFloor keeps it; the second, with no read between,
	// prunes it.
	s.Apply(chain.WriteSet{{Key: "x", Value: []byte("1")}})
	s.Seal()
	s.SetFloor(s.Version())
	s.SetFloor(s.Version())
	ch := Answer(s, &Request{Spec: Spec{Kind: KindScan}, Pin: pin})
	if ch.Err != ErrCodePruned {
		t.Fatalf("pruned pin gave err %d, want %d", ch.Err, ErrCodePruned)
	}
	if ch = Answer(s, &Request{Spec: Spec{Kind: KindScan}, Pin: 999}); ch.Err != ErrCodeUnknown {
		t.Fatalf("unknown pin gave err %d", ch.Err)
	}
}

func TestAnswerRowsDoNotAliasStore(t *testing.T) {
	s := storeWith(map[string]string{"k": "abc"})
	pin, _ := s.LatestSealed()
	ch := Answer(s, &Request{Spec: Spec{Kind: KindScan, Proj: ProjKV, Agg: AggNone}, Pin: pin})
	if len(ch.Rows) != 1 {
		t.Fatalf("rows %d", len(ch.Rows))
	}
	ch.Rows[0].V[0] = 'z'
	if v, _ := s.Get("k"); string(v) != "abc" {
		t.Fatal("chunk row aliased store storage")
	}
}

// gatewayNet assembles a client gateway plus one query service per shard
// store on a simulated network.
func gatewayNet(t *testing.T, stores []*chain.Store) (*sim.Engine, *Gateway, []simnet.NodeID) {
	t.Helper()
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Uniform{Base: time.Millisecond})
	var targets []simnet.NodeID
	for i, st := range stores {
		ep := n.Attach(simnet.NodeID(i+1), simnet.DefaultSharedQueue())
		AttachService(ep, st)
		targets = append(targets, ep.ID())
	}
	cep := n.Attach(99, simnet.DefaultSharedQueue())
	return e, NewGateway(cep), targets
}

func TestGatewayScatterSum(t *testing.T) {
	s0 := storeWith(map[string]string{"c_a": "100", "c_b": "50", "s_a": "7"})
	s1 := storeWith(map[string]string{"c_c": "25", "s_c": "3"})
	e, g, targets := gatewayNet(t, []*chain.Store{s0, s1})

	var got *Result
	e.Schedule(0, func() {
		err := g.Start(&Query{
			Targets: targets,
			Spec:    Spec{Kind: KindScan, Start: "c_", End: chain.PrefixEnd("c_"), Proj: ProjKV, Agg: AggSum},
			OnDone:  func(r *Result, err error) { got = r; checkErr(t, err) },
		})
		checkErr(t, err)
	})
	e.RunUntilIdle()
	if got == nil {
		t.Fatal("query never completed")
	}
	if got.Sum != 175 || got.Count != 3 {
		t.Fatalf("sum %d count %d, want 175/3", got.Sum, got.Count)
	}
	if len(got.Pins) != 2 || got.Pins[0] != 1 || got.Pins[1] != 1 {
		t.Fatalf("pins %v", got.Pins)
	}
}

func TestGatewayOrderedMergeAcrossPages(t *testing.T) {
	// Interleaved key spaces across two shards force real merging, and a
	// tiny page size forces multi-page streaming.
	s0, s1 := chain.NewStore(), chain.NewStore()
	var want []string
	var ws0, ws1 chain.WriteSet
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%03d", i)
		want = append(want, k)
		w := chain.Write{Key: k, Value: []byte(strconv.Itoa(i))}
		if i%2 == 0 {
			ws0 = append(ws0, w)
		} else {
			ws1 = append(ws1, w)
		}
	}
	s0.Apply(ws0)
	s0.Seal()
	s1.Apply(ws1)
	s1.Seal()
	e, g, targets := gatewayNet(t, []*chain.Store{s0, s1})

	var got []string
	e.Schedule(0, func() {
		err := g.Start(&Query{
			Targets:   targets,
			Spec:      Spec{Kind: KindScan, Proj: ProjKV, Agg: AggNone},
			PageLimit: 7,
			OnRow:     func(row Row) { got = append(got, row.K) },
			OnDone:    func(r *Result, err error) { checkErr(t, err) },
		})
		checkErr(t, err)
	})
	e.RunUntilIdle()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged order mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestGatewayPrunedPinFailsTyped(t *testing.T) {
	s0 := storeWith(map[string]string{"c_a": "1"})
	e, g, targets := gatewayNet(t, []*chain.Store{s0})
	var gotErr error
	e.Schedule(0, func() {
		err := g.Start(&Query{
			Targets: targets,
			Pins:    []uint64{1},
			Spec:    Spec{Kind: KindScan, Proj: ProjKV, Agg: AggCount},
			OnDone:  func(_ *Result, err error) { gotErr = err },
		})
		checkErr(t, err)
		// Advance the store past the pin before the scan arrives.
		s0.Apply(chain.WriteSet{{Key: "c_b", Value: []byte("2")}})
		s0.Seal()
		s0.SetFloor(s0.Version())
	})
	e.RunUntilIdle()
	if !errors.Is(gotErr, chain.ErrHeightPruned) {
		t.Fatalf("err = %v, want ErrHeightPruned", gotErr)
	}
}

// A stable checkpoint on every shard before every page does not cost a
// scan its cut: each page reads the pin, and the store keeps a version
// read since the previous SetFloor.
func TestGatewayScanKeepsPinAcrossCheckpoints(t *testing.T) {
	e := sim.NewEngine(1)
	n := simnet.New(e, simnet.Uniform{Base: time.Millisecond})
	var want []string
	var targets []simnet.NodeID
	for i := 0; i < 2; i++ {
		st := chain.NewStore()
		var ws chain.WriteSet
		for k := i; k < 60; k += 2 {
			key := fmt.Sprintf("k%03d", k)
			ws = append(ws, chain.Write{Key: key, Value: []byte("1")})
		}
		st.Apply(ws)
		st.Seal()
		ep := n.Attach(simnet.NodeID(i+1), simnet.DefaultSharedQueue())
		svc := AttachService(ep, st)
		writes := 0
		ep.SetHandler(simnet.HandlerFunc{CostFn: svc.Cost, HandleFn: func(m simnet.Message) {
			if req, ok := m.Payload.(*Request); ok && req.Kind == KindScan {
				// A new key inside the scanned range: a page that read
				// the head instead of the pin would return it.
				writes++
				st.Apply(chain.WriteSet{{Key: fmt.Sprintf("k%03d.%d", writes, i), Value: []byte("1")}})
				st.Seal()
				st.SetFloor(st.Version())
			}
			svc.Handle(m)
		}})
		targets = append(targets, ep.ID())
	}
	for k := 0; k < 60; k++ {
		want = append(want, fmt.Sprintf("k%03d", k))
	}
	g := NewGateway(n.Attach(99, simnet.DefaultSharedQueue()))

	var got []string
	var gotErr error
	done := false
	e.Schedule(0, func() {
		err := g.Start(&Query{
			Targets:   targets,
			Spec:      Spec{Kind: KindScan, Proj: ProjKV, Agg: AggNone},
			PageLimit: 8,
			OnRow:     func(row Row) { got = append(got, row.K) },
			OnDone:    func(_ *Result, err error) { gotErr, done = err, true },
		})
		checkErr(t, err)
	})
	e.RunUntilIdle()
	if !done || gotErr != nil {
		t.Fatalf("scan done=%v err=%v", done, gotErr)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows across checkpoints:\n got %v\nwant %v", got, want)
	}
}

func TestConservationResolvesResidues(t *testing.T) {
	// Shard 0 committed the payment (c_a 100→75, commit recorded); shard 1
	// is pinned pre-commit: c_c still 25 with a staged +25. The resolve
	// round must apply shard 1's residue because shard 0 committed at its
	// pin.
	s0 := chain.NewStore()
	s0.Apply(chain.WriteSet{{Key: "c_a", Value: []byte("100")}})
	s0.Apply(chain.WriteSet{{Key: "c_a", Value: []byte("75")}})
	s0.RecordCommit("tx9")
	s0.Seal()

	s1 := chain.NewStore()
	s1.Apply(chain.WriteSet{
		{Key: "c_c", Value: []byte("25")},
		{Key: "S_tx9\x00c_c", Value: append([]byte{1}, []byte("50")...)},
		{Key: "L_c_c", Value: []byte("tx9")},
	})
	s1.Seal()

	e, g, targets := gatewayNet(t, []*chain.Store{s0, s1})
	var got *ConservationResult
	e.Schedule(0, func() {
		Conservation(g, targets, func(r *ConservationResult, err error) {
			checkErr(t, err)
			got = r
		})
	})
	e.RunUntilIdle()
	if got == nil {
		t.Fatal("conservation never completed")
	}
	if got.Checking != 100 {
		t.Fatalf("checking %d, want 100", got.Checking)
	}
	if len(got.Residues) != 1 || got.Residues[0].Delta != 25 {
		t.Fatalf("residues %+v", got.Residues)
	}
	if got.Applied != 25 || got.Total != 125 {
		t.Fatalf("applied %d total %d, want 25/125", got.Applied, got.Total)
	}
}

func TestConservationIgnoresUncommittedResidues(t *testing.T) {
	// Both shards pinned mid-prepare: staged deltas exist but no commit
	// record anywhere, so nothing is applied and totals are the committed
	// values only.
	s0 := chain.NewStore()
	s0.Apply(chain.WriteSet{
		{Key: "c_a", Value: []byte("100")},
		{Key: "S_tx1\x00c_a", Value: append([]byte{1}, []byte("75")...)},
	})
	s0.Seal()
	s1 := chain.NewStore()
	s1.Apply(chain.WriteSet{
		{Key: "c_b", Value: []byte("50")},
		{Key: "S_tx1\x00c_b", Value: append([]byte{1}, []byte("75")...)},
	})
	s1.Seal()

	e, g, targets := gatewayNet(t, []*chain.Store{s0, s1})
	var got *ConservationResult
	e.Schedule(0, func() {
		Conservation(g, targets, func(r *ConservationResult, err error) {
			checkErr(t, err)
			got = r
		})
	})
	e.RunUntilIdle()
	if got == nil {
		t.Fatal("conservation never completed")
	}
	if got.Applied != 0 || got.Total != 150 {
		t.Fatalf("applied %d total %d, want 0/150", got.Applied, got.Total)
	}
	if len(got.Residues) != 2 {
		t.Fatalf("residues %+v", got.Residues)
	}
}

func checkErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
