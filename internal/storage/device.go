// Package storage provides the block-device substrate of the MobiCeal
// reproduction.
//
// Real MobiCeal sits on an eMMC card exposed through a flash translation
// layer as a plain block device; the multi-snapshot adversary of the paper
// (Sec. III-A) observes nothing but full images of that device taken at
// different points in time. This package therefore models exactly that
// surface: fixed-size blocks, random access, full-image snapshots, and
// instrumentation so the higher layers (device mapper, thin provisioning,
// MobiCeal core) and the adversary toolkit can observe the same things the
// paper's components do.
package storage

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by device implementations.
var (
	// ErrOutOfRange reports a block index at or beyond the device end.
	ErrOutOfRange = errors.New("storage: block index out of range")
	// ErrBadBuffer reports a read/write buffer whose length is not the
	// device block size.
	ErrBadBuffer = errors.New("storage: buffer length != block size")
	// ErrClosed reports I/O on a closed device.
	ErrClosed = errors.New("storage: device is closed")
	// ErrReadOnly reports a write to a read-only device or snapshot view.
	ErrReadOnly = errors.New("storage: device is read-only")
)

// Device is a fixed-block-size random-access block device: the one I/O
// contract every layer of the stack implements, and the analogue of the
// kernel's submit_bio. A transfer of any shape — one block, a flat range, a
// merged scatter-gather run — is a BlockVec addressing v.Len() consecutive
// blocks; flat-buffer callers use the ReadBlocks/WriteBlocks helpers.
//
// fid is the flight-recorder request id (internal/obs) and rides every
// call down the stack unchanged, so the leaf StatsDevice can record its
// devop under the same lifecycle the scheduler opened. 0 means untagged.
//
// A vec operation may fail with no partial effect or with a prefix
// transferred; a block-granular implementation reports the prefix length
// as a PartialError (counted in blocks across all segments). A vec whose
// block size differs from the device's fails with ErrBadBuffer, and a
// zero-length vec is a no-op. Implementations must be safe for concurrent
// use.
type Device interface {
	// BlockSize returns the size of one block in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// ReadVec copies blocks [start, start+v.Len()) into v's segments in
	// order.
	ReadVec(fid, start uint64, v BlockVec) error
	// WriteVec stores v's segments, in order, as blocks
	// [start, start+v.Len()).
	WriteVec(fid, start uint64, v BlockVec) error
	// Discard is the TRIM analogue: blocks [start, start+count) are no
	// longer needed. It is advisory, like REQ_OP_DISCARD on a device that
	// does not advertise it: only provisioning layers (thinp.Thin) act on
	// it, stacking layers (SliceDevice, dm.Crypt) forward it, and every
	// other device returns nil without touching data.
	Discard(fid, start, count uint64) error
	// Sync flushes buffered state to stable storage.
	Sync(fid uint64) error
	// Close releases resources; subsequent I/O fails with ErrClosed.
	Close() error
}

// flatVec wraps a flat buffer as a vec in d's block unit, rejecting a
// buffer that is not a whole number of blocks.
func flatVec(d Device, buf []byte) (BlockVec, error) {
	bs := d.BlockSize()
	if len(buf)%bs != 0 {
		return BlockVec{}, fmt.Errorf("%w: buffer %d not a multiple of %d",
			ErrBadBuffer, len(buf), bs)
	}
	return VecOne(bs, buf), nil
}

// ReadBlocks reads len(dst)/BlockSize consecutive blocks of d starting at
// start, untagged. len(dst) must be a multiple of the block size.
func ReadBlocks(d Device, start uint64, dst []byte) error {
	v, err := flatVec(d, dst)
	if err != nil {
		return err
	}
	return d.ReadVec(0, start, v)
}

// WriteBlocks writes src as len(src)/BlockSize consecutive blocks of d
// starting at start, untagged. len(src) must be a multiple of the block
// size.
func WriteBlocks(d Device, start uint64, src []byte) error {
	v, err := flatVec(d, src)
	if err != nil {
		return err
	}
	return d.WriteVec(0, start, v)
}

// ReadFull reads n consecutive blocks starting at start into a fresh
// buffer.
func ReadFull(d Device, start, n uint64) ([]byte, error) {
	out := make([]byte, int(n)*d.BlockSize())
	if err := ReadBlocks(d, start, out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckVec validates a vec request against a device geometry: a vec whose
// block size disagrees with the device's fails with ErrBadBuffer, a range
// past the device end with ErrOutOfRange. Zero-length vecs are valid
// no-ops.
func CheckVec(start uint64, v BlockVec, blockSize int, numBlocks uint64) error {
	if v.seg0 == nil {
		return nil
	}
	if v.bs != blockSize {
		return fmt.Errorf("%w: vec block size %d, device %d",
			ErrBadBuffer, v.bs, blockSize)
	}
	n := uint64(v.Len())
	if start >= numBlocks || n > numBlocks-start {
		return fmt.Errorf("%w: blocks [%d, %d), device has %d",
			ErrOutOfRange, start, start+n, numBlocks)
	}
	return nil
}

// ForEachRun walks a sorted slice of block indexes and invokes fn once per
// maximal run of consecutive indexes, with the run's first index and
// length. Callers use it to turn block sets into vectored range operations
// (run-length discards, coalesced metadata application).
func ForEachRun(sorted []uint64, fn func(start uint64, count int) error) error {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[j-1]+1 {
			j++
		}
		if err := fn(sorted[i], j-i); err != nil {
			return err
		}
		i = j
	}
	return nil
}
