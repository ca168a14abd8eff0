package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Cols: []string{"a", "bb"}}
	tbl.Add(1, 2.5)
	tbl.Add("str", 450*time.Microsecond)
	tbl.Add("big", 1500.0)
	tbl.Notes = append(tbl.Notes, "a note")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo", "a ", "bb", "2.5", "450µs", "1500", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{
		"table1", "table2", "table3",
		"fig2", "fig8", "fig9", "fig10", "fig11", "fig11x", "fig12", "fig13", "fig13x", "fig13r", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"eq1", "eq2", "eq3",
		"faults-loss", "faults-crash", "faults-partition", "faults-byz", "faults-2pc",
		"fig-read", "fig-readx",
	}
	for _, id := range wanted {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(wanted) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(wanted))
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestStaticExperimentsRun(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "eq1", "eq2", "eq3"} {
		e, _ := Get(id)
		tbl := e.Run(Quick())
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestRunConsensusShapes(t *testing.T) {
	// The headline §4.1 claim at one configuration: AHL+ beats HL and AHL
	// at scale on the cluster (the gap opens once O(N^2) verification and
	// queue pressure bite, N >= ~31).
	d := 2 * time.Second
	hl := RunConsensus(ConsensusCfg{Protocol: "hl", N: 31, Duration: d, Seed: 1})
	ahl := RunConsensus(ConsensusCfg{Protocol: "ahl", N: 31, Duration: d, Seed: 1})
	ahlp := RunConsensus(ConsensusCfg{Protocol: "ahl+", N: 31, Duration: d, Seed: 1})
	if ahlp.Tps <= 1.5*hl.Tps || ahlp.Tps <= 1.5*ahl.Tps {
		t.Fatalf("AHL+ (%v) should clearly beat HL (%v) and AHL (%v) at N=31",
			ahlp.Tps, hl.Tps, ahl.Tps)
	}
	if hl.Tps <= 0 {
		t.Fatal("HL dead at N=31; should still work at this scale")
	}
	// Latency should be recorded.
	if ahlp.AvgLatency <= 0 {
		t.Fatal("no latency measured")
	}
	// Execution cost is far below consensus cost (Figure 17's claim).
	if ahlp.ExecBusy <= 0 || ahlp.ConsensusBusy < 2*ahlp.ExecBusy {
		t.Fatalf("cost breakdown off: consensus %v vs exec %v",
			ahlp.ConsensusBusy, ahlp.ExecBusy)
	}
}

func TestRunConsensusBaselines(t *testing.T) {
	d := 2 * time.Second
	tm := RunConsensus(ConsensusCfg{Protocol: "tendermint", N: 7, Duration: d, Seed: 2})
	rf := RunConsensus(ConsensusCfg{Protocol: "raft", N: 7, Duration: d, Seed: 2})
	ib := RunConsensus(ConsensusCfg{Protocol: "ibft", N: 7, Duration: d, Seed: 2})
	for name, r := range map[string]ConsensusResult{"tendermint": tm, "raft": rf, "ibft": ib} {
		if r.Tps <= 0 {
			t.Fatalf("%s produced no throughput", name)
		}
	}
	// HL's pipelining beats the lockstep protocols at N=19 (Figure 2).
	hl := RunConsensus(ConsensusCfg{Protocol: "hl", N: 19, Duration: d, Seed: 2})
	tm19 := RunConsensus(ConsensusCfg{Protocol: "tendermint", N: 19, Duration: d, Seed: 2})
	if hl.Tps <= tm19.Tps {
		t.Fatalf("HL (%v) should beat Tendermint (%v) at N=19", hl.Tps, tm19.Tps)
	}
}

// TestByzantineFailuresHurt silences the first f leaders of an AHL+
// committee: the honest quorum must depose each in turn (f view changes)
// and then commit again, at a throughput the lost time visibly dents. The
// window is long enough to span the three view changes — a shorter one
// closes mid-recovery and measures only the stall.
func TestByzantineFailuresHurt(t *testing.T) {
	d := 10 * time.Second
	clean := RunConsensus(ConsensusCfg{Protocol: "ahl+", N: 7, Duration: d, Seed: 3})
	dirty := RunConsensus(ConsensusCfg{Protocol: "ahl+", N: 7, Duration: d, Seed: 3,
		Failures: 3, FailureMode: 2 /* silent */})
	if dirty.Tps >= clean.Tps {
		t.Fatalf("failures did not hurt: clean %v vs dirty %v", clean.Tps, dirty.Tps)
	}
	if dirty.ViewChanges < 3 {
		t.Fatalf("%d view changes, want one per silent leader (3)", dirty.ViewChanges)
	}
	if dirty.Tps < clean.Tps/4 {
		t.Fatalf("AHL+ should recover from f silent leaders: %v tps vs clean %v", dirty.Tps, clean.Tps)
	}
}
