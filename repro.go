// Package repro is a from-scratch Go reproduction of "Towards Scaling
// Blockchain Systems via Sharding" (Dang, Dinh, Loghin, Chang, Lin, Ooi —
// SIGMOD 2019): a TEE-assisted, sharded, permissioned blockchain.
//
// The facade re-exports the system's main entry points:
//
//   - NewSystem builds a complete sharded deployment (shard committees
//     running the AHL+ consensus family, an optional BFT reference
//     committee coordinating cross-shard 2PC/2PL transactions, client
//     gateways) on a deterministic discrete-event simulator standing in
//     for the paper's 100-server cluster / 1,400-node GCP testbed.
//   - RunExperiment regenerates any table or figure from the paper's
//     evaluation; see EXPERIMENTS.md for the experiment index.
//
// Quick start:
//
//	sys := repro.NewSystem(repro.SystemConfig{
//	    Seed: 1, Shards: 3, ShardSize: 4, RefSize: 4,
//	    Variant: repro.VariantAHLPlus, Clients: 1, SendReplies: true,
//	})
//	sys.Seed(100, 1000) // 100 SmallBank accounts, balance 1000
//	d := sys.PaymentDTx("tx1", "acc1", "acc2", 50)
//	sys.Client(0).SubmitDistributed(d, func(r repro.TxResult) {
//	    fmt.Println(r.TxID, r.Committed, r.Latency)
//	})
//	sys.Run(30 * time.Second)
//
// See examples/ for runnable programs and internal/bench for the full
// benchmark harness.
package repro

import (
	"io"

	"repro/internal/bench"
	"repro/internal/chaincode"
	"repro/internal/chaincode/shardlib"
	"repro/internal/consensus/pbft"
	"repro/internal/core"
	"repro/internal/txn"
)

// System is a running sharded blockchain deployment.
type System = core.System

// SystemConfig configures a deployment.
type SystemConfig = core.Config

// Environment selects LAN-cluster or GCP-style networking.
type Environment = core.Environment

// DTx describes a distributed (cross-shard) transaction.
type DTx = txn.DTx

// TxOp is one shard's part of a distributed transaction.
type TxOp = txn.Op

// TxResult reports a completed transaction to the submitting client.
type TxResult = txn.Result

// Client is a client gateway attached to a System.
type Client = txn.Client

// Variant selects the consensus protocol of each committee.
type Variant = pbft.Variant

// The consensus variants of §4.1, in ablation order.
const (
	VariantHL      = pbft.VariantHL
	VariantAHL     = pbft.VariantAHL
	VariantAHLOpt1 = pbft.VariantAHLOpt1
	VariantAHLPlus = pbft.VariantAHLPlus
	VariantAHLR    = pbft.VariantAHLR
)

// ReshardMode selects the §5.3 reconfiguration strategy.
type ReshardMode = core.ReshardMode

// EpochConfig configures the recurring §5.3 epoch loop
// (System.EnableEpochs): every Interval the beacon locks a fresh rnd and
// the batched node transition runs.
type EpochConfig = core.EpochConfig

// ReshardConfig tunes one reconfiguration (batch size, state-transfer
// costs).
type ReshardConfig = core.ReshardConfig

// The Figure 12 strategies.
const (
	ReshardSwapAll   = core.ReshardSwapAll
	ReshardSwapBatch = core.ReshardSwapBatch
)

// NewSystem builds and wires a sharded blockchain deployment.
func NewSystem(cfg SystemConfig) *System { return core.NewSystem(cfg) }

// The §6.4 usability extensions: write chaincode logic once against the
// KV interface, transform it with AutoShard, and submit logical
// transactions through a Router that hides sharding and coordination.

// Chaincode is a deterministic smart contract installable on shards via
// SystemConfig.ExtraShardCodes.
type Chaincode = chaincode.Chaincode

// KV is the state interface chaincode business logic is written against.
type KV = chaincode.KV

// Logic is single-shard chaincode business logic over KV.
type Logic = chaincode.Logic

// AutoShard transforms single-shard chaincode logic into a sharded
// chaincode exposing derived prepare/commit/abort functions (§6.4's
// automatic transformation).
func AutoShard(name string, logic Logic) Chaincode { return shardlib.AutoShard(name, logic) }

// Router is the §6.4 transparent client: it decomposes logical
// transactions, batches per-shard sub-calls, and picks the single-shard
// fast path or the distributed protocol automatically.
type Router = txn.Router

// SubCall is one shard-local piece of a decomposed logical invocation.
type SubCall = txn.SubCall

// SplitFunc decomposes a logical function's arguments into SubCalls.
type SplitFunc = txn.SplitFunc

// Names of the automatically transformed benchmark chaincodes installed
// on every shard.
const (
	AutoSmallBank = core.AutoSmallBank
	AutoKVStore   = core.AutoKVStore
)

// AccountName formats the canonical benchmark account name for index i
// (the accounts System.Seed creates).
func AccountName(i int) string { return core.Account(i) }

// BenchScale controls experiment sizes.
type BenchScale = bench.Scale

// Experiment scales, smallest to largest. ScaleSmoke is the CI tier;
// ScaleFull reaches the paper's N=79 committees and 972-node systems.
var (
	ScaleSmoke    = bench.Smoke
	ScaleQuick    = bench.Quick
	ScaleStandard = bench.Standard
	ScaleFull     = bench.Full
)

// RunExperiment regenerates the given paper table/figure (e.g. "fig8",
// "table2", "eq1") at the given scale, writing the result to w. It returns
// false if the experiment id is unknown.
func RunExperiment(id string, s BenchScale, w io.Writer) bool {
	e, ok := bench.Get(id)
	if !ok {
		return false
	}
	e.Run(s).Fprint(w)
	return true
}

// Experiments lists all experiment ids with their titles.
func Experiments() map[string]string {
	out := make(map[string]string)
	for _, e := range bench.All() {
		out[e.ID] = e.Title
	}
	return out
}
