package storage

import "repro/internal/wire"

// Memory is the in-memory Backend: the same append/snapshot/recover
// contract as the disk engine with RAM for stable storage. It exists for
// tests and for embedding scenarios that want restart-within-process
// semantics without touching the filesystem; the deterministic simulator
// uses no backend at all.
//
// Records and snapshots are stored in their wire encoding, so a Memory
// backend exercises the exact codec path the disk engine persists and is
// isolated from callers mutating blocks after Append returns.
type Memory struct {
	records [][]byte // encoded WAL tail, oldest first
	snap    []byte   // encoded body of the latest snapshot, nil if none
	mark    int      // records appended before the latest snapshot
	closed  bool
	enc     wire.Encoder
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Append implements Backend.
func (m *Memory) Append(rec Record) error {
	if m.closed {
		return ErrClosed
	}
	m.enc.Reset()
	if err := encodeRecord(&m.enc, rec); err != nil {
		return err
	}
	m.records = append(m.records, append([]byte(nil), m.enc.Bytes()...))
	return nil
}

// RootDue implements Backend: always true, so every stable checkpoint
// saves a root and the tail between roots stays one checkpoint long.
func (m *Memory) RootDue() bool { return true }

// SaveSnapshot implements Backend.
func (m *Memory) SaveSnapshot(snap Snapshot) error {
	if m.closed {
		return ErrClosed
	}
	m.enc.Reset()
	encodeSnapshotBody(&m.enc, snap, 0, 0)
	m.snap = append([]byte(nil), m.enc.Bytes()...)
	m.mark = len(m.records)
	return nil
}

// Recover implements Backend.
func (m *Memory) Recover() (*Snapshot, []Record, error) {
	if m.closed {
		return nil, nil, ErrClosed
	}
	var snap *Snapshot
	if m.snap != nil {
		s, _, _, err := decodeSnapshotBody(m.snap)
		if err != nil {
			return nil, nil, err
		}
		snap = &s
	}
	tail := make([]Record, 0, len(m.records)-m.mark)
	for _, raw := range m.records[m.mark:] {
		rec, err := decodeRecord(raw)
		if err != nil {
			return nil, nil, err
		}
		tail = append(tail, rec)
	}
	return snap, tail, nil
}

// TruncateBefore implements Backend.
func (m *Memory) TruncateBefore(uint64) error {
	if m.closed {
		return ErrClosed
	}
	m.records = append([][]byte(nil), m.records[m.mark:]...)
	m.mark = 0
	return nil
}

// Sync implements Backend.
func (m *Memory) Sync() error {
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.closed = true
	return nil
}
