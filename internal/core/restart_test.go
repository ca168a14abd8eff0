package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/txn"
)

// restartShards, restartPerShardAccs and restartBalance size the restart
// tests' transfer load: shards shard committees, that many accounts on
// each of shards 0 and 1, each opened with that balance.
const (
	restartShards       = 2
	restartPerShardAccs = 4
	restartBalance      = int64(1000)
)

// seedTransferLoad opens the restart tests' accounts and returns the
// balances every replica must end with, plus a builder for wave n of
// cross-shard transfers. The builder keeps the expected balances current.
func seedTransferLoad(cl *liveCluster) (map[string]int64, func(n int) []txn.DTx) {
	taken := make(map[string]bool)
	accs0 := accountsOnShard(restartShards, 0, restartPerShardAccs, taken)
	accs1 := accountsOnShard(restartShards, 1, restartPerShardAccs, taken)
	all := append(append([]string(nil), accs0...), accs1...)
	cl.seedAccounts(all, restartBalance)

	expected := make(map[string]int64, len(all))
	for _, acc := range all {
		expected[acc] = restartBalance
	}
	var txSeq int
	transfer := func(from, to string, amount int64) txn.DTx {
		txSeq++
		d := core.PaymentDTx(restartShards, fmt.Sprintf("restart-t%d", txSeq), from, to, amount)
		expected[from] -= amount
		expected[to] += amount
		return d
	}
	wave := func(n int) []txn.DTx {
		var dtxs []txn.DTx
		for i := 0; i < restartPerShardAccs; i++ {
			// Disjoint pairs, alternating direction per wave: no lock
			// contention, so every transfer must commit.
			if i%2 == n%2 {
				dtxs = append(dtxs, transfer(accs0[i], accs1[i], int64(10+n+i)))
			} else {
				dtxs = append(dtxs, transfer(accs1[i], accs0[i], int64(20+n+i)))
			}
		}
		return dtxs
	}
	return expected, wave
}

// TestLiveClusterReplicaRestartRecovery is the crash-restart story on the
// live cluster: a shard replica is crash-stopped (kill -9 equivalent:
// storage handles dropped without a flush, TCP cut) mid-deployment, the
// cluster keeps committing cross-shard transfers through the outage
// (4-replica committee tolerates one fault), and the restarted process
// must recover from its snapshot+WAL, state-sync the tail it missed from
// peers, rejoin consensus, and converge to the exact same balances as
// everyone else — with zero 2PL-lock or staged-write residue.
func TestLiveClusterReplicaRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster (seconds of wall clock) skipped in -short")
	}
	const per, ref = 4, 4
	dataDir := t.TempDir()
	cl := startLiveCluster(t, restartShards, per, ref, func(c *core.ClusterConfig) {
		c.DataDir = dataDir
		// Small segments so a short run still rolls the WAL several times
		// and saves durable roots, yet each segment outlasts a checkpoint
		// interval (about 15 KiB of blocks and stage records here), which
		// is what bounds the log below.
		c.WALSegmentKB = 32
	})
	expected, wave := seedTransferLoad(cl)

	// Waves on the healthy cluster, so the victim's journal holds decided
	// blocks and 2PC stage records across several segments and durable
	// roots before the crash.
	const preCrashWaves = 30
	for n := 0; n < preCrashWaves; n++ {
		cl.runTransfers(wave(n), 120*time.Second)
	}

	// Crash-stop a non-leader shard-0 replica. Its journal must exist on
	// disk — otherwise the test is silently running the memory path.
	victim := simnet.NodeID(cl.cfg.Shards[0][per-1].ID)
	cl.kill(victim)
	walDir := filepath.Join(cl.cfg.NodeDataDir(victim), "wal")
	segs, err := os.ReadDir(walDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("victim %d has no WAL segments in %s (err=%v)", victim, walDir, err)
	}
	// Durable roots land once per segment roll and truncate behind them,
	// so the log — and the tail the restart replays — stays within the
	// two retained roots' segments (Keep+1) plus the current one.
	snaps, err := os.ReadDir(filepath.Join(cl.cfg.NodeDataDir(victim), "snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("victim %d saved no durable root over %d waves (err=%v)", victim, preCrashWaves, err)
	}
	if len(segs) > 2+2 {
		t.Fatalf("victim %d kept %d WAL segments, want at most Keep+1 plus the current one", victim, len(segs))
	}

	// A wave while the victim is down: f=1 is tolerated, the committee
	// keeps deciding without it.
	cl.runTransfers(wave(preCrashWaves), 120*time.Second)

	// Restart on the original address: boot recovery restores the newest
	// root and replays the journal after it synchronously, so the pre-crash
	// state is visible immediately (the tail alone may be empty when the
	// crash came right after a root).
	n := cl.restart(victim)
	var restored uint64
	n.Do(func() { restored = n.Replica.StableCheckpoint() })
	if restored == 0 && n.Executed() == 0 {
		t.Fatalf("restarted node %d recovered nothing from its journal", victim)
	}

	// A wave with the recovered replica back in the committee.
	cl.runTransfers(wave(preCrashWaves+1), 120*time.Second)

	// Conservation bookkeeping sanity, then the full per-replica check —
	// including the restarted node, which must converge via statesync.
	var supply int64
	for _, bal := range expected {
		supply += bal
	}
	if want := int64(len(expected)) * restartBalance; supply != want {
		t.Fatalf("expected-balance bookkeeping broken: %d != %d", supply, want)
	}
	cl.waitSettled(expected, 120*time.Second)
}

// TestLiveClusterCommitteeRestartRecovery crash-stops every replica of one
// shard committee at once and restarts them all. The default 4 MiB WAL
// segment never fills in this run, so no durable root is ever due and each
// replica replays its whole journal: far more than a checkpoint window
// past the (empty) root. The committee must resume at the stable
// checkpoints its journals recorded and commit new transfers; resuming at
// the root's watermark would leave no replica able to order anything.
func TestLiveClusterCommitteeRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster (seconds of wall clock) skipped in -short")
	}
	const per, ref, window = 4, 4, 32
	dataDir := t.TempDir()
	cl := startLiveCluster(t, restartShards, per, ref, func(c *core.ClusterConfig) {
		c.DataDir = dataDir
	})
	expected, wave := seedTransferLoad(cl)
	const preCrashWaves = 30
	for n := 0; n < preCrashWaves; n++ {
		cl.runTransfers(wave(n), 120*time.Second)
	}
	// Every replica has executed everything, so the committee goes down
	// at one state.
	cl.waitSettled(expected, 120*time.Second)

	var committee []simnet.NodeID
	for _, a := range cl.cfg.Shards[0] {
		committee = append(committee, simnet.NodeID(a.ID))
	}
	for _, id := range committee {
		cl.kill(id)
	}
	for _, id := range committee {
		if snaps, _ := os.ReadDir(filepath.Join(cl.cfg.NodeDataDir(id), "snap")); len(snaps) != 0 {
			t.Fatalf("node %d saved %d durable roots; the test needs a journal with none", id, len(snaps))
		}
		n := cl.restart(id)
		var stable, through uint64
		n.Do(func() { stable, through = n.Replica.StableCheckpoint(), n.Replica.ExecutedThrough() })
		if through <= window || stable == 0 {
			t.Fatalf("restarted node %d: executed through %d, stable checkpoint %d; want more than a window (%d) replayed and a recovered checkpoint",
				id, through, stable, window)
		}
	}

	cl.runTransfers(wave(preCrashWaves), 120*time.Second)
	cl.waitSettled(expected, 120*time.Second)
}
