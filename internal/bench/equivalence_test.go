package bench

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus/pbft"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tee"
	"repro/internal/workload"
)

// This file is the determinism harness that pins the conflict-aware
// parallel executor to the serial execution semantics: every registered
// experiment — including the faults-* schedules, whose whole point is to
// attack ordering — is rendered at smoke scale on the serial executor and
// on 4 workers, and the table text must be byte-identical. Because the
// tables fold in committed throughput, abort rates, view changes,
// unresolved counts and lock residue, any divergence in execution order,
// write-set content or reply timing shows up as a text diff. The
// state-level test below additionally compares the full final key/value
// state (so SmallBank balances) of every shard quorum head.
//
// A replica sizes its worker pool to runtime.GOMAXPROCS when it is built
// (1 = the serial executor), so each pass runs under that many processors.

// smokeOutputs renders every experiment whose id passes keep at smoke
// scale with workers execution workers per replica, and returns the table
// text keyed by experiment id.
func smokeOutputs(keep func(id string) bool, workers int) map[string]string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	out := make(map[string]string)
	for _, e := range All() {
		if !keep(e.ID) {
			continue
		}
		var sb strings.Builder
		e.Run(Smoke()).Fprint(&sb)
		out[e.ID] = sb.String()
	}
	return out
}

func assertEquivalentOutputs(t *testing.T, keep func(id string) bool) {
	t.Helper()
	serial := smokeOutputs(keep, 1)
	parallel := smokeOutputs(keep, 4)
	if len(serial) == 0 {
		t.Fatal("experiment filter matched nothing")
	}
	for _, e := range All() {
		if !keep(e.ID) {
			continue
		}
		if serial[e.ID] != parallel[e.ID] {
			t.Errorf("%s diverges under parallel execution:\n--- serial ---\n%s--- 4 workers ---\n%s",
				e.ID, serial[e.ID], parallel[e.ID])
		}
	}
}

// TestParallelExecEquivalenceFaultSchedules runs the PR 3 fault-injection
// family (crashes, partitions, link faults, Byzantine behaviors, 2PC
// coordinator failures) serial vs parallel.
func TestParallelExecEquivalenceFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full fault-schedule passes in -short mode")
	}
	assertEquivalentOutputs(t, func(id string) bool { return strings.HasPrefix(id, "faults-") })
}

// TestParallelExecEquivalenceSmokeTier runs every remaining registered
// experiment serial vs parallel at smoke scale.
func TestParallelExecEquivalenceSmokeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full smoke-tier passes in -short mode")
	}
	assertEquivalentOutputs(t, func(id string) bool { return !strings.HasPrefix(id, "faults-") })
}

// finalStates runs one faulty sharded SmallBank deployment (follower
// crash mid-run plus 5% message drop) with the given worker count and
// returns every shard quorum head's full key/value state, rendered as
// text, plus its store digest.
func finalStates(workers int) []string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	const shards, per, ref = 3, 4, 4
	sys := core.NewSystem(core.Config{
		Seed: 99, Shards: shards, ShardSize: per, RefSize: ref,
		Variant: pbft.VariantAHLPlus, Clients: shards, SendReplies: true,
		Costs: tee.DefaultCosts(),
	})
	sys.Seed(40*shards, 1_000_000)
	inj := sys.InjectFaults(faults.Config{Seed: 99, DropRate: 0.05})
	for _, nodes := range sys.Topology.ShardNodes {
		inj.CrashFor(nodes[len(nodes)-1], 5*time.Second, 10*time.Second)
	}
	gen := workload.NewSmallBankGen(rand.New(rand.NewSource(99+17)), 40*shards, 0)
	drv := &workload.ClosedLoopShardedDriver{Sys: sys, Gen: gen, Outstanding: 8}
	window := 20 * time.Second
	drv.Start(window)
	sys.Run(window + 40*time.Second)

	var states []string
	for _, bc := range sys.ShardCommittees {
		st := bc.MostExecuted().Store()
		var sb strings.Builder
		for it := st.Head().Iter("", ""); ; {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.Write(v)
			sb.WriteByte('\n')
		}
		sb.WriteString(st.Digest().String())
		states = append(states, sb.String())
	}
	return states
}

// TestParallelExecStateEquivalence compares the byte-exact final state
// (every key, every SmallBank balance, the incremental store digest) of a
// faulty sharded run executed serially vs on 4 workers.
func TestParallelExecStateEquivalence(t *testing.T) {
	serial := finalStates(1)
	parallel := finalStates(4)
	if len(serial) != len(parallel) {
		t.Fatalf("shard count differs: %d vs %d", len(serial), len(parallel))
	}
	for s := range serial {
		if serial[s] != parallel[s] {
			t.Errorf("shard %d final state diverges under parallel execution:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
				s, serial[s], parallel[s])
		}
	}
}
