package storage

import (
	"fmt"

	"repro/internal/wire"
)

// On-disk encodings for WAL records and snapshot bodies, built from the
// shared internal/wire helpers so blocks and transactions have exactly one
// byte representation whether they travel over TCP or land on disk. Both
// backends use these: the disk engine for real files, the memory engine to
// isolate stored records from later caller mutation (and to keep the two
// engines behaviorally interchangeable under the contract tests).

func encodeRecord(e *wire.Encoder, rec Record) error {
	e.Byte(byte(rec.Kind))
	switch rec.Kind {
	case KindBlock:
		e.Uvarint(rec.Seq)
		wire.PutBlock(e, rec.Block)
	case KindStage:
		e.ByteSlice(rec.Stage)
	default:
		return fmt.Errorf("storage: append of unknown record kind %d", rec.Kind)
	}
	return nil
}

func decodeRecord(data []byte) (Record, error) {
	d := wire.NewDecoder(data)
	var rec Record
	rec.Kind = Kind(d.Byte())
	switch rec.Kind {
	case KindBlock:
		rec.Seq = d.Uvarint()
		rec.Block = wire.Block(d)
	case KindStage:
		rec.Stage = d.ByteSlice()
	default:
		return Record{}, fmt.Errorf("%w: unknown WAL record kind %d", ErrCorrupt, rec.Kind)
	}
	if err := d.Finish(); err != nil {
		return Record{}, fmt.Errorf("%w: WAL record: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// encodeSnapshotBody appends the snapshot payload. segBase is the index of
// the WAL segment opened alongside this snapshot: recovery replays only
// segments >= segBase, and truncation may delete everything below it.
// ord is the log ordinal the first record after the snapshot will carry;
// replay verifies the tail's ordinals run contiguously from it, which is
// what turns a missing or shortened middle segment into a detected
// corruption instead of a silently shorter history.
func encodeSnapshotBody(e *wire.Encoder, snap Snapshot, segBase, ord uint64) {
	e.Uvarint(segBase)
	e.Uvarint(ord)
	e.Uvarint(snap.Seq)
	e.Uvarint(snap.ExecutedThrough)
	e.Uvarint(snap.View)
	if snap.StateView != nil {
		wire.PutSnapshotFrom(e, snap.StateView)
	} else {
		wire.PutSnapshot(e, snap.State)
	}
	wire.PutUint64s(e, snap.ExecIDs)
	wire.PutUint64s(e, snap.OKIDs)
	wire.PutUint64s(e, snap.FailIDs)
	e.ByteSlice(snap.Cert)
	e.ByteSlice(snap.Stage)
}

func decodeSnapshotBody(data []byte) (Snapshot, uint64, uint64, error) {
	d := wire.NewDecoder(data)
	segBase := d.Uvarint()
	ord := d.Uvarint()
	snap := Snapshot{
		Seq:             d.Uvarint(),
		ExecutedThrough: d.Uvarint(),
		View:            d.Uvarint(),
		State:           wire.Snapshot(d),
		ExecIDs:         wire.Uint64s(d),
		OKIDs:           wire.Uint64s(d),
		FailIDs:         wire.Uint64s(d),
		Cert:            d.ByteSlice(),
		Stage:           d.ByteSlice(),
	}
	if err := d.Finish(); err != nil {
		return Snapshot{}, 0, 0, fmt.Errorf("%w: snapshot body: %v", ErrCorrupt, err)
	}
	return snap, segBase, ord, nil
}
