package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blockcrypto"
)

// Store is the world state of one shard: an ordered key-value index with a
// running version counter, an incrementally-maintained state digest, and a
// small MVCC retention window of recent sealed versions.
//
// The digest is a chain over applied write-sets rather than a full Merkle
// root over all keys; recomputing a whole-state Merkle root per block is
// what Fabric avoids too. Two stores that applied the same write-set
// sequence from the same genesis have equal digests, which is all the
// protocols need (state transfer verification at resharding, §5.3).
//
// Reads and writes are decoupled copy-on-write style: the index is a
// two-level structure (a spine of small sorted chunks) whose nodes are
// tagged with the generation that created them. Sealing a version (one
// Seal per executed block) freezes the current generation; later writes
// clone only the chunks they touch, so a sealed version is an immutable
// O(1) snapshot that concurrent readers traverse without locks while the
// execution path keeps mutating the head in place. See doc.go for the
// retention rule and the read-consistency guarantee.
type Store struct {
	mu      sync.RWMutex
	t       *tree
	gen     uint64 // generation new mutations must own
	version uint64
	digest  blockcrypto.Digest

	// sealed is the MVCC retention window: block-boundary versions in
	// ascending order, pruned by SetFloor (stable checkpoint) and capped
	// at maxRetain as a backstop for stores that never checkpoint. floor
	// is the highest height SetFloor was given.
	sealed    []*sealedView
	maxRetain int
	floor     uint64

	// commits indexes distributed-transaction ids by the store version
	// whose write-set applied their staged values (CommitStaged). The
	// index is resolution metadata for height-pinned readers — it is not
	// part of replicated state, never enters the digest, and is bounded
	// FIFO at commitCap entries: commitQ is a ring of the recorded ids
	// whose oldest entry, once it is full, sits at commitHead.
	commits    map[string]uint64
	commitQ    []string
	commitHead int
}

type sealedView struct {
	version uint64
	digest  blockcrypto.Digest
	t       *tree
	read    atomic.Bool // ReaderAt returned it since the last SetFloor
}

// defaultMaxRetain bounds the sealed-version window when no checkpoint
// ever advances the floor (simulation baselines without checkpoints).
const defaultMaxRetain = 1024

// commitCap bounds the commit-record index. Resolution of residues older
// than the cap degrades to "unknown" (see CommittedAt).
const commitCap = 1 << 16

// Typed read-API errors.
var (
	// ErrHeightPruned reports a pin below the retention floor that was not
	// kept: no reader read it across a stable checkpoint (or the retention
	// cap dropped it).
	ErrHeightPruned = errors.New("chain: height pruned from the retention window")
	// ErrHeightUnknown reports a pin that is not a sealed block boundary
	// (including heights the store has not reached yet).
	ErrHeightUnknown = errors.New("chain: height is not a sealed version")
)

// NewStore returns an empty state store.
func NewStore() *Store {
	return &Store{
		t:         &tree{},
		maxRetain: defaultMaxRetain,
		commits:   make(map[string]uint64),
	}
}

// --- ordered chunked index ---

// chunkMax is the split threshold; chunks hold at most this many keys.
const chunkMax = 128

// chunk is one sorted run of keys. A chunk whose gen matches the store's
// current generation is private to the head and mutated in place; any
// other chunk may be shared with sealed readers and is cloned on write.
type chunk struct {
	gen  uint64
	keys []string
	vals [][]byte
}

func (c *chunk) last() string { return c.keys[len(c.keys)-1] }

// find returns the insertion index for key and whether it is present.
func (c *chunk) find(key string) (int, bool) {
	i := sort.SearchStrings(c.keys, key)
	return i, i < len(c.keys) && c.keys[i] == key
}

// tree is the spine over chunks, itself generation-tagged and cloned on
// first write after a seal.
type tree struct {
	gen    uint64
	chunks []*chunk
	size   int
}

// locate returns the index of the chunk that does or would contain key.
// With n chunks it may return n when key sorts after every stored key.
func (t *tree) locate(key string) int {
	return sort.Search(len(t.chunks), func(i int) bool { return t.chunks[i].last() >= key })
}

func (t *tree) get(key string) ([]byte, bool) {
	ci := t.locate(key)
	if ci == len(t.chunks) {
		return nil, false
	}
	if i, ok := t.chunks[ci].find(key); ok {
		return t.chunks[ci].vals[i], true
	}
	return nil, false
}

// writable returns the head tree, cloning the spine if it is still shared
// with the last sealed version. Callers hold the write lock.
func (s *Store) writable() *tree {
	if s.t.gen != s.gen {
		s.t = &tree{gen: s.gen, chunks: append([]*chunk(nil), s.t.chunks...), size: s.t.size}
	}
	return s.t
}

// writableChunk makes chunk ci of t privately owned by the current
// generation, cloning it if it is shared with a sealed reader.
func (s *Store) writableChunk(t *tree, ci int) *chunk {
	c := t.chunks[ci]
	if c.gen == s.gen {
		return c
	}
	nc := &chunk{
		gen:  s.gen,
		keys: append(make([]string, 0, len(c.keys)+1), c.keys...),
		vals: append(make([][]byte, 0, len(c.vals)+1), c.vals...),
	}
	t.chunks[ci] = nc
	return nc
}

func (s *Store) put(key string, val []byte) {
	t := s.writable()
	if len(t.chunks) == 0 {
		t.chunks = append(t.chunks, &chunk{gen: s.gen, keys: []string{key}, vals: [][]byte{val}})
		t.size = 1
		return
	}
	ci := t.locate(key)
	if ci == len(t.chunks) {
		ci-- // sorts after everything: extend the last chunk
	}
	c := s.writableChunk(t, ci)
	i, ok := c.find(key)
	if ok {
		c.vals[i] = val
		return
	}
	c.keys = append(c.keys, "")
	copy(c.keys[i+1:], c.keys[i:])
	c.keys[i] = key
	c.vals = append(c.vals, nil)
	copy(c.vals[i+1:], c.vals[i:])
	c.vals[i] = val
	t.size++
	if len(c.keys) > chunkMax {
		s.split(t, ci)
	}
}

// split divides chunk ci in half, keeping both halves current-generation.
func (s *Store) split(t *tree, ci int) {
	c := t.chunks[ci]
	mid := len(c.keys) / 2
	right := &chunk{
		gen:  s.gen,
		keys: append([]string(nil), c.keys[mid:]...),
		vals: append([][]byte(nil), c.vals[mid:]...),
	}
	c.keys = c.keys[:mid:mid]
	c.vals = c.vals[:mid:mid]
	t.chunks = append(t.chunks, nil)
	copy(t.chunks[ci+2:], t.chunks[ci+1:])
	t.chunks[ci+1] = right
}

func (s *Store) del(key string) {
	t := s.writable()
	ci := t.locate(key)
	if ci == len(t.chunks) {
		return
	}
	if _, ok := t.chunks[ci].find(key); !ok {
		return
	}
	c := s.writableChunk(t, ci)
	i, _ := c.find(key)
	c.keys = append(c.keys[:i], c.keys[i+1:]...)
	c.vals = append(c.vals[:i], c.vals[i+1:]...)
	t.size--
	if len(c.keys) == 0 {
		t.chunks = append(t.chunks[:ci], t.chunks[ci+1:]...)
	}
}

// --- mutable-head API ---

// Get returns the value for key and whether it exists. The returned slice
// is a copy the caller owns.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.t.get(key)
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.t.size
}

// Version returns the number of write-sets applied.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Digest returns the current state digest.
func (s *Store) Digest() blockcrypto.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.digest
}

// Write is a single key mutation; a nil Value deletes the key.
type Write struct {
	Key   string
	Value []byte
}

// WriteSet is an ordered set of mutations produced by executing one
// transaction.
type WriteSet []Write

// Digest returns a canonical digest of the write-set (sorted by key so
// semantically equal sets hash equally).
func (ws WriteSet) Digest() blockcrypto.Digest {
	sorted := append(WriteSet(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	chunks := make([][]byte, 0, len(sorted)*3)
	for _, w := range sorted {
		chunks = append(chunks, []byte(fmt.Sprintf("%d:", len(w.Key))), []byte(w.Key), w.Value)
	}
	return blockcrypto.Hash(chunks...)
}

// Apply applies the write-set and folds it into the state digest.
func (s *Store) Apply(ws WriteSet) {
	if len(ws) == 0 {
		return
	}
	s.mu.Lock()
	for _, w := range ws {
		if w.Value == nil {
			s.del(w.Key)
		} else {
			// Fresh copy: stored value slices are never mutated afterwards,
			// which is what lets sealed readers hand them out by reference.
			s.put(w.Key, append([]byte(nil), w.Value...))
		}
	}
	s.version++
	s.digest = blockcrypto.HashOfDigests(s.digest, ws.Digest())
	s.mu.Unlock()
}

// --- MVCC retention window ---

// Seal publishes the current version into the retention window: a block
// boundary height-pinned readers may attach to. The execution path calls
// it once per executed block; sealing an already-sealed version is a
// no-op. Oldest sealed versions beyond the retention cap are pruned.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.sealed); n > 0 && s.sealed[n-1].version == s.version {
		return
	}
	s.sealed = append(s.sealed, &sealedView{version: s.version, digest: s.digest, t: s.t})
	s.gen++ // future writes clone what they touch
	if over := len(s.sealed) - s.maxRetain; over > 0 {
		s.sealed = append(s.sealed[:0:0], s.sealed[over:]...)
	}
}

// SetFloor applies the retention rule at a stable checkpoint h: it keeps
// every sealed version at or above h, and a version below h only if
// ReaderAt returned it since the previous SetFloor. A reader that reads its
// pin at least once per checkpoint interval therefore keeps it, and a pin
// nobody reads any more is gone at the second SetFloor after its last read.
// Readers created earlier stay valid either way (their trees are
// immutable); ReaderAt at a pruned height fails with ErrHeightPruned.
func (s *Store) SetFloor(h uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.sealed[:0:0]
	for _, sv := range s.sealed {
		if sv.read.Swap(false) || sv.version >= h {
			kept = append(kept, sv)
		}
	}
	s.sealed = kept
	s.floor = max(s.floor, h)
}

// ReaderAt returns the immutable view sealed at height h and marks it read
// for the retention rule (see SetFloor), or a typed error: ErrHeightPruned
// when h fell out of the retention window, ErrHeightUnknown when h is not
// a sealed block boundary.
func (s *Store) ReaderAt(h uint64) (*Reader, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.sealed), func(i int) bool { return s.sealed[i].version >= h })
	if i < len(s.sealed) && s.sealed[i].version == h {
		sv := s.sealed[i]
		sv.read.Store(true)
		return &Reader{t: sv.t, version: sv.version, digest: sv.digest}, nil
	}
	if len(s.sealed) == 0 || h < s.sealed[0].version || h < s.floor {
		return nil, fmt.Errorf("%w: height %d", ErrHeightPruned, h)
	}
	return nil, fmt.Errorf("%w: height %d", ErrHeightUnknown, h)
}

// LatestSealed reports the newest version in the retention window; ok is
// false before the first Seal.
func (s *Store) LatestSealed() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.sealed) == 0 {
		return 0, false
	}
	return s.sealed[len(s.sealed)-1].version, true
}

// Head freezes and returns the current state as an immutable reader,
// without entering it into the retention window. Later writes clone what
// they touch. Unlike ReaderAt it must be called from the mutating
// goroutine (the execution path or a quiesced test).
func (s *Store) Head() *Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Reader{t: s.t, version: s.version, digest: s.digest}
	s.gen++
	return r
}

// --- commit-record index ---

// RecordCommit notes that txid's staged values were applied by the
// write-set that produced the current version. The executor calls it
// right after applying a transaction whose invocation committed staged
// state (see chaincode.Result.Committed). Idempotent per txid, so WAL
// replay after a restart does not double-enter the FIFO. O(1): once the
// index is full the new id overwrites the oldest in place.
func (s *Store) RecordCommit(txid string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.commits[txid]; dup {
		return
	}
	s.commits[txid] = s.version
	if len(s.commitQ) < commitCap {
		s.commitQ = append(s.commitQ, txid)
		return
	}
	delete(s.commits, s.commitQ[s.commitHead])
	s.commitQ[s.commitHead] = txid
	s.commitHead = (s.commitHead + 1) % commitCap
}

// CommittedAt reports the version at which txid's staged values were
// applied on this store. ok is false when the store never saw the commit
// or the record aged out of the FIFO index — callers must treat that as
// "unknown", not "aborted".
func (s *Store) CommittedAt(txid string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.commits[txid]
	return v, ok
}

// --- immutable readers ---

// Reader is an immutable, height-pinned view of the store. It is safe for
// concurrent use from any goroutine while the store keeps executing, and
// it never observes later writes. Returned value slices are the store's
// immutable internal storage: callers must not modify them (Get copies;
// iterators do not).
type Reader struct {
	t       *tree
	version uint64
	digest  blockcrypto.Digest
}

// Version returns the pinned height.
func (r *Reader) Version() uint64 { return r.version }

// Digest returns the state digest at the pinned height.
func (r *Reader) Digest() blockcrypto.Digest { return r.digest }

// Len returns the number of live keys at the pinned height.
func (r *Reader) Len() int { return r.t.size }

// Get returns the value for key at the pinned height. The returned slice
// is a copy the caller owns.
func (r *Reader) Get(key string) ([]byte, bool) {
	v, ok := r.t.get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// GetRef is Get without the defensive copy: the returned slice aliases
// the store's immutable storage and must not be modified. The streaming
// query scan uses it to keep the read path allocation-light.
func (r *Reader) GetRef(key string) ([]byte, bool) { return r.t.get(key) }

// Iter returns an ordered iterator over [start, end); an empty end means
// "to the last key". Values alias immutable storage (see Reader).
func (r *Reader) Iter(start, end string) *Iter {
	it := &Iter{t: r.t, end: end}
	it.ci = r.t.locate(start)
	if it.ci < len(r.t.chunks) {
		it.i, _ = r.t.chunks[it.ci].find(start)
	}
	return it
}

// IterPrefix returns an ordered iterator over every key starting with
// prefix.
func (r *Reader) IterPrefix(prefix string) *Iter {
	return r.Iter(prefix, PrefixEnd(prefix))
}

// PrefixEnd returns the smallest key greater than every key with the
// given prefix ("" when no such key exists, i.e. an unbounded range).
func PrefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// Keys returns every key in [start, end) — the migration helper for
// callers of the removed KeysWithPrefix that really want a slice.
func (r *Reader) Keys(start, end string) []string {
	var out []string
	for it := r.Iter(start, end); ; {
		k, _, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// KeysWithPrefix returns every key starting with prefix, sorted.
func (r *Reader) KeysWithPrefix(prefix string) []string {
	return r.Keys(prefix, PrefixEnd(prefix))
}

// Snapshot materializes the full pinned state for transfer or durable
// persistence. The returned snapshot is independent of the store.
func (r *Reader) Snapshot() Snapshot {
	kv := make(map[string][]byte, r.t.size)
	for _, c := range r.t.chunks {
		for i, k := range c.keys {
			kv[k] = append([]byte(nil), c.vals[i]...)
		}
	}
	return Snapshot{KV: kv, Version: r.version, Digest: r.digest}
}

// Iter is an ordered cursor over a Reader's key range.
type Iter struct {
	t   *tree
	end string
	ci  int
	i   int
}

// Next returns the next key/value in order; ok is false at the end of the
// range. The value aliases immutable storage and must not be modified.
func (it *Iter) Next() (string, []byte, bool) {
	for it.ci < len(it.t.chunks) {
		c := it.t.chunks[it.ci]
		if it.i >= len(c.keys) {
			it.ci++
			it.i = 0
			continue
		}
		k := c.keys[it.i]
		if it.end != "" && k >= it.end {
			return "", nil, false
		}
		v := c.vals[it.i]
		it.i++
		return k, v, true
	}
	return "", nil, false
}

// --- snapshots ---

// Snapshot captures the full state for transfer to a node joining the
// shard. The snapshot is independent of future mutations.
type Snapshot struct {
	KV      map[string][]byte
	Version uint64
	Digest  blockcrypto.Digest
}

// SizeBytes estimates the serialized size of the snapshot, used to model
// state-transfer time during shard reconfiguration.
func (sn Snapshot) SizeBytes() int {
	n := 48
	for k, v := range sn.KV {
		n += len(k) + len(v) + 16
	}
	return n
}

// Restore replaces the store contents with the snapshot. The retention
// window and the commit-record index are reset: sealed versions of the
// discarded history are not valid views of the restored one. Callers
// re-seal after restoring.
func (s *Store) Restore(sn Snapshot) {
	keys := make([]string, 0, len(sn.KV))
	for k := range sn.KV {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	t := &tree{gen: s.gen, size: len(keys)}
	for start := 0; start < len(keys); start += chunkMax / 2 {
		stop := start + chunkMax/2
		if stop > len(keys) {
			stop = len(keys)
		}
		c := &chunk{gen: s.gen, keys: append([]string(nil), keys[start:stop]...)}
		c.vals = make([][]byte, 0, stop-start)
		for _, k := range c.keys {
			c.vals = append(c.vals, append([]byte(nil), sn.KV[k]...))
		}
		t.chunks = append(t.chunks, c)
	}
	s.t = t
	s.version = sn.Version
	s.digest = sn.Digest
	s.sealed, s.floor = nil, 0
	s.commits = make(map[string]uint64)
	s.commitQ, s.commitHead = nil, 0
}
