package storage

import "fmt"

// SliceDevice exposes a contiguous sub-range of a parent device as a device
// of its own. MobiCeal's storage layout (Fig. 3) divides one physical
// partition into metadata | data | crypto footer; each region is handed to a
// different subsystem as a SliceDevice.
type SliceDevice struct {
	parent Device
	start  uint64
	length uint64
}

// NewSliceDevice returns a view of parent covering blocks
// [start, start+length). It fails if the range exceeds the parent.
func NewSliceDevice(parent Device, start, length uint64) (*SliceDevice, error) {
	if start+length < start || start+length > parent.NumBlocks() {
		return nil, fmt.Errorf("%w: slice [%d, %d) of %d-block device",
			ErrOutOfRange, start, start+length, parent.NumBlocks())
	}
	return &SliceDevice{parent: parent, start: start, length: length}, nil
}

// BlockSize implements Device.
func (d *SliceDevice) BlockSize() int { return d.parent.BlockSize() }

// NumBlocks implements Device.
func (d *SliceDevice) NumBlocks() uint64 { return d.length }

// ReadVec implements Device by offsetting the vec into the parent.
func (d *SliceDevice) ReadVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.length); err != nil {
		return err
	}
	return d.parent.ReadVec(fid, d.start+start, v)
}

// WriteVec implements Device by offsetting the vec into the parent.
func (d *SliceDevice) WriteVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.length); err != nil {
		return err
	}
	return d.parent.WriteVec(fid, d.start+start, v)
}

// Discard implements Device by offsetting the range into the parent.
func (d *SliceDevice) Discard(fid, start, count uint64) error {
	if count > 0 && (start >= d.length || count > d.length-start) {
		return fmt.Errorf("%w: blocks [%d, %d) of %d-block slice",
			ErrOutOfRange, start, start+count, d.length)
	}
	return d.parent.Discard(fid, d.start+start, count)
}

// Sync implements Device.
func (d *SliceDevice) Sync(fid uint64) error { return d.parent.Sync(fid) }

// Close implements Device. Closing a slice does not close the parent: the
// parent owns the underlying resource and several slices share it.
func (d *SliceDevice) Close() error { return nil }

// Start returns the slice's first block index on the parent device.
func (d *SliceDevice) Start() uint64 { return d.start }
