// Package chain holds the replicated data structures of one shard: the
// block ledger, the transaction format, Merkle commitments, and the world
// state (Store).
//
// # Read API
//
// Store has two faces. The mutable head is what the execution path talks
// to: Apply(writeSet) advances the version and folds the write-set into
// the state digest; Get/Len/Version/Digest read the latest state under a
// short read-lock. Everything else reads through immutable, height-pinned
// views:
//
//	r, err := store.ReaderAt(h) // sealed block boundary h
//	it := r.IterPrefix("c_")    // ordered, allocation-light
//	for k, v, ok := it.Next(); ok; k, v, ok = it.Next() { ... }
//
// A Reader never observes writes applied after its height, is safe for
// concurrent use from any goroutine, and costs O(1) to create — no
// copying. Reader.Snapshot() materializes the full state for transfer,
// and a durable snapshot streams the reader's ordered chunks straight into
// its file (wire.PutSnapshotFrom); neither ever stalls the writer.
//
// # MVCC retention rule
//
// The store keeps a bounded window of sealed versions. The executor calls
// Seal() once per executed block, which freezes the current tree
// generation: later Applies clone only the chunks they touch
// (copy-on-write over a two-level chunked index), so sealing is O(1) and
// write amplification stays proportional to the write-set, not the state.
// The PBFT stable checkpoint calls SetFloor(v), and one rule decides what
// it keeps: every version at or above v, and a version below v only if
// ReaderAt returned it since the previous SetFloor. ReaderAt marks the
// version it returns as read; SetFloor clears the mark on what it keeps.
// So a reader that reads its pin at least once per checkpoint interval
// keeps it, and a pin nobody reads any more is gone at the second
// checkpoint after its last read — no clock, lease or release call. The
// window is also capped at a fixed depth for configurations that never
// checkpoint. ReaderAt at a height below the floor that was not kept (or
// that the cap dropped) fails with the typed ErrHeightPruned; a height
// that is not a sealed boundary fails with ErrHeightUnknown. Protocols
// that never call Seal pay no copy-on-write overhead at all.
//
// # Consistency guarantee
//
// A pinned Reader is immutable: every Get/Iter observes the single
// version it was created at, byte-for-byte, regardless of concurrent
// Apply/Seal/SetFloor activity — there is no torn read in which parts of
// two versions mix. Cross-shard consistency (one pin per shard forming a
// coherent global cut) is layered above in internal/query, which uses the
// store's commit-record index (RecordCommit/CommittedAt) to resolve
// transactions that straddle the per-shard pins.
package chain
