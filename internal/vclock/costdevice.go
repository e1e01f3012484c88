package vclock

import "mobiceal/internal/storage"

// CostDevice wraps a storage.Device and charges every block read/write to a
// Meter, turning the real I/O performed by the Go implementations into
// virtual time on the experiment clock.
type CostDevice struct {
	inner storage.Device
	meter *Meter
}

// NewCostDevice wraps inner so that all traffic is charged to meter.
func NewCostDevice(inner storage.Device, meter *Meter) *CostDevice {
	return &CostDevice{inner: inner, meter: meter}
}

// Meter returns the meter traffic is charged to.
func (d *CostDevice) Meter() *Meter { return d.meter }

// BlockSize implements storage.Device.
func (d *CostDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements storage.Device.
func (d *CostDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadVec implements storage.Device. Each block is charged individually
// at consecutive indexes regardless of segmentation, so the meter prices
// the request as one seek plus a streaming run — the cost a merged bio
// pays — and the virtual-clock price does not depend on how a scheduler
// scattered it. The flight id is forwarded with charging independent of
// it, so enabling the flight recorder cannot perturb the `*_virt`
// reproduction metrics by a single charge.
func (d *CostDevice) ReadVec(fid, start uint64, v storage.BlockVec) error {
	if err := d.inner.ReadVec(fid, start, v); err != nil {
		return err
	}
	bs := d.inner.BlockSize()
	n := v.Len()
	for i := 0; i < n; i++ {
		d.meter.ChargeRead(start+uint64(i), bs)
	}
	return nil
}

// WriteVec implements storage.Device with the same per-block charging as
// ReadVec.
func (d *CostDevice) WriteVec(fid, start uint64, v storage.BlockVec) error {
	if err := d.inner.WriteVec(fid, start, v); err != nil {
		return err
	}
	bs := d.inner.BlockSize()
	n := v.Len()
	for i := 0; i < n; i++ {
		d.meter.ChargeWrite(start+uint64(i), bs)
	}
	return nil
}

// Discard implements storage.Device; the cost model charges data transfer
// only, and the discard is not forwarded.
func (d *CostDevice) Discard(_, _, _ uint64) error { return nil }

// Sync implements storage.Device.
func (d *CostDevice) Sync(fid uint64) error { return d.inner.Sync(fid) }

// Close implements storage.Device.
func (d *CostDevice) Close() error { return d.inner.Close() }
