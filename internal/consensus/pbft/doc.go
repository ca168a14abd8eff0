// Package pbft implements the paper's PBFT family on the simulated
// network:
//
//   - HL: stock PBFT as in Hyperledger Fabric v0.6 — N = 3f+1, quorum
//     2f+1, client requests broadcast by the receiving replica, one shared
//     inbound queue for request and consensus traffic.
//   - AHL (Attested HyperLedger, §4.1): PBFT hardened with the attested
//     append-only memory. Equivocation is impossible, so N = 2f+1 with
//     quorum f+1.
//   - AHL+opt1: AHL with the inbound queue split per message class.
//   - AHL+ (opt1+opt2): additionally, client requests are forwarded to the
//     leader instead of broadcast.
//   - AHLR (opt3): AHL+ where followers vote to the leader, whose
//     aggregation enclave emits one quorum certificate per phase —
//     O(N) normal-case communication, at the price of making the leader a
//     single point of failure for progress.
//
// All variants share one replica engine parameterized by Options; the
// differences above are data, not forks of the protocol code, which is
// what makes the Figure 10 ablation meaningful.
//
// Role in the AHL design: this is the intra-shard consensus layer — each
// shard committee and the reference committee R run one instance of it
// over internal/simnet, with enclave operations charged through
// internal/tee. Raising fault tolerance from f < n/3 to f < n/2 via the
// attested log is what lets internal/sharding form ~80-node committees
// instead of 600+ at a 25% adversary, and the opt1-3 queue/communication
// optimizations are what keep those committees live at N=79 and on WAN
// deployments (Figures 8, 9, 14). Byzantine behaviors (equivocation,
// silence) are injectable per replica for the failure experiments.
//
// # Protocol flow
//
// There is one flow, the same in the simulator and in the live runtime.
// Ordering and execution are decoupled, as in classic PBFT: the leader
// assigns sequence numbers and issues pre-prepares without waiting for
// earlier sequences to execute, bounded by min(stable checkpoint + Window,
// executedThrough + PipelineDepth) — see maxAssign. Prepares and commits
// for many sequences run concurrently; execution alone is strictly
// ordered, advancing executedThrough one sequence at a time only after
// the commit quorum forms and (on durable nodes) the decided block's WAL
// append returns. A view change collects every in-flight sequence above
// the stable checkpoint into the new-view message, so a deep pipeline
// survives leader failure with no decided sequence lost and no sequence
// executed twice (pipeline_test.go pins this).
//
// A decided batch executes conflict-aware on a pool of workers sized to
// the processors available when the replica is built (parexec.go):
// transactions are partitioned into non-conflicting groups via the
// chaincodes' declared key sets (chaincode.ConflictKeys, grounded in the
// same keys the 2PL lock table guards), groups execute concurrently
// against overlay views, and write-sets are applied in original block
// order — so the state digest chain is byte-identical to the serial
// executor, which remains as the one-processor case and the fallback
// (internal/bench equivalence harness).
//
// The leader cuts a batch when it is full or when Timing.BatchTimeout
// expires. The one environment-dependent choice is Timing.BatchEarlyCut
// (see scheduleBatch): when set, a leader whose pipeline is idle cuts a
// partial batch after that short coalescing window instead of waiting
// out the timer; with proposals in flight the BatchTimeout cadence
// applies either way. The modelled environments leave it zero, the live
// runtime sets it — both for measured reasons recorded on the field.
package pbft
