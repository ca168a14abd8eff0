// Package query is the streaming scatter-gather read layer over the
// sharded ledger: relational operators evaluated per shard against
// height-pinned snapshots, composed by a gateway-side planner into one
// globally consistent answer.
//
// # Operators
//
// Evaluation is built from pure pull-based streaming operators in the
// datalog-engine style: Scan (ordered range over a chain.Reader, with
// predicate and projection pushed down to the shard), Filter, Project,
// ordered k-way Merge, and the Count/Sum/GroupSum folds. The shard side
// composes Scan+Filter+fold and ships bounded pages; the gateway composes
// Merge over the per-shard streams, so a full-cluster ordered scan never
// materializes more than one page per shard.
//
// # Wire protocol
//
// Two messages carry everything: MsgQueryRequest (a sub-query: pin
// acquisition, a scan page, or a commit-resolution probe) and
// MsgQueryChunk (one bounded page of rows/partials, with a resume key for
// the next page). Paging is stateless on the server — every page request
// carries the full sub-query plus the resume key, and the server
// re-attaches to the pinned version via Store.ReaderAt — so replicas keep
// no per-query state and a lost chunk costs one page, not a cursor leak.
//
// # Consistency
//
// A query runs at one pin per shard: the shard's latest sealed block
// version, acquired in a single scatter round (or supplied by the caller
// to share a cut across several scans). Every page of every sub-query
// reads the exact sealed version it was pinned to — never the mutable
// head — so results are height-consistent per shard by construction, and
// the read path takes no 2PL locks and never blocks execution. Every page
// (and the pin itself) reads through Store.ReaderAt, and a stable
// checkpoint keeps each version read since the previous one, so a query
// that keeps paging keeps its cut. A pin left unread for a whole
// checkpoint interval is pruned, and its next page fails with the typed
// pruned error; results are all-or-nothing, never a mix of versions.
//
// Across shards, the pins form a cut that may slice through an in-flight
// two-phase commit: shard A pinned after its commit-phase executed, shard
// B before. The staged-residue protocol repairs this: a scan of the 2PL
// staging prefix yields each shard's pending deltas, and a resolution
// round asks every shard whether the owning transaction had committed at
// or before its pin (served from the store's commit-record index). If any
// shard committed it, the cut already contains that shard's effects, so
// the other shards' staged deltas are applied to the answer. The
// remaining hazard window — one shard pinned before its prepare while
// another pinned after its commit — requires the pin scatter (microseconds
// apart) to straddle a full prepare-to-commit span (two consensus rounds),
// and the live smoke test asserts exactness under sustained write load.
package query
