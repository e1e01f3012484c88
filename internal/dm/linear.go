package dm

import (
	"fmt"

	"mobiceal/internal/storage"
)

// Linear is the dm-linear target: a contiguous remapped range of an
// underlying device, the building block LVM uses for plain logical volumes.
type Linear struct {
	slice *storage.SliceDevice
}

// NewLinear maps blocks [start, start+length) of inner.
func NewLinear(inner storage.Device, start, length uint64) (*Linear, error) {
	s, err := storage.NewSliceDevice(inner, start, length)
	if err != nil {
		return nil, fmt.Errorf("dm: linear target: %w", err)
	}
	return &Linear{slice: s}, nil
}

// BlockSize implements storage.Device.
func (l *Linear) BlockSize() int { return l.slice.BlockSize() }

// NumBlocks implements storage.Device.
func (l *Linear) NumBlocks() uint64 { return l.slice.NumBlocks() }

// ReadVec implements storage.Device.
func (l *Linear) ReadVec(fid, start uint64, v storage.BlockVec) error {
	return l.slice.ReadVec(fid, start, v)
}

// WriteVec implements storage.Device.
func (l *Linear) WriteVec(fid, start uint64, v storage.BlockVec) error {
	return l.slice.WriteVec(fid, start, v)
}

// Discard implements storage.Device; the linear target does not pass
// discards down.
func (l *Linear) Discard(_, _, _ uint64) error { return nil }

// Sync implements storage.Device.
func (l *Linear) Sync(fid uint64) error { return l.slice.Sync(fid) }

// Close implements storage.Device.
func (l *Linear) Close() error { return nil }

// Zero is the dm-zero target: reads return zeros, writes are discarded. It
// is used in tests as a bottomless sink and to terminate unused table
// entries, as on Linux.
type Zero struct {
	blockSize int
	numBlocks uint64
}

// NewZero returns a dm-zero device of the given geometry.
func NewZero(blockSize int, numBlocks uint64) *Zero {
	return &Zero{blockSize: blockSize, numBlocks: numBlocks}
}

// BlockSize implements storage.Device.
func (z *Zero) BlockSize() int { return z.blockSize }

// NumBlocks implements storage.Device.
func (z *Zero) NumBlocks() uint64 { return z.numBlocks }

// ReadVec implements storage.Device: every segment zero-fills.
func (z *Zero) ReadVec(_, start uint64, v storage.BlockVec) error {
	if err := storage.CheckVec(start, v, z.blockSize, z.numBlocks); err != nil {
		return err
	}
	return v.Range(func(_ int, seg []byte) error {
		clear(seg)
		return nil
	})
}

// WriteVec implements storage.Device: writes are discarded.
func (z *Zero) WriteVec(_, start uint64, v storage.BlockVec) error {
	return storage.CheckVec(start, v, z.blockSize, z.numBlocks)
}

// Discard implements storage.Device.
func (z *Zero) Discard(_, _, _ uint64) error { return nil }

// Sync implements storage.Device.
func (z *Zero) Sync(uint64) error { return nil }

// Close implements storage.Device.
func (z *Zero) Close() error { return nil }
