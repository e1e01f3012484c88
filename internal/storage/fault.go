package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the base error returned by FaultDevice failures.
var ErrInjected = errors.New("storage: injected fault")

// PartialError reports a range operation that an injected fault interrupted
// after a prefix of the range had already transferred — the partial
// completion a real controller reports when it dies mid-request. It wraps
// the underlying fault, so errors.Is(err, ErrInjected) still holds.
type PartialError struct {
	// Done counts the blocks transferred before the fault struck.
	Done int
	// Err is the underlying injected fault.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v (after %d blocks completed)", e.Err, e.Done)
}

// Unwrap implements errors.Unwrap.
func (e *PartialError) Unwrap() error { return e.Err }

// FaultDevice wraps a Device and fails operations on demand, for testing
// error propagation through the storage stack (a flash controller going bad
// mid-write is a survivable event the upper layers must report cleanly, not
// corrupt state over).
//
// Faults are armed with FailReadsAfter/FailWritesAfter: the n-th subsequent
// operation of that kind and all later ones fail until the counter is
// re-armed. FaultDevice is safe for concurrent use.
type FaultDevice struct {
	inner Device

	mu          sync.Mutex
	readsLeft   int
	writesLeft  int
	syncsLeft   int
	readArmed   bool
	writeArmed  bool
	syncArmed   bool
	class       error
	failedReads uint64
	failedWrite uint64
	failedSyncs uint64
}

// NewFaultDevice wraps inner with fault injection disarmed.
func NewFaultDevice(inner Device) *FaultDevice {
	return &FaultDevice{inner: inner}
}

// FailReadsAfter arms read failures: the next n reads succeed, everything
// after fails with ErrInjected.
func (d *FaultDevice) FailReadsAfter(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readArmed = true
	d.readsLeft = n
}

// FailWritesAfter arms write failures: the next n writes succeed,
// everything after fails with ErrInjected.
func (d *FaultDevice) FailWritesAfter(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeArmed = true
	d.writesLeft = n
}

// FailSyncsAfter arms sync failures: the next n Sync calls succeed,
// everything after fails with ErrInjected. Unlike reads/writes, the sync
// budget is per call, not per block.
func (d *FaultDevice) FailSyncsAfter(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncArmed = true
	d.syncsLeft = n
}

// SetErrorClass attaches a classification sentinel (ErrTransient or
// ErrMedium) to every subsequently injected fault, so errors.Is sees both
// ErrInjected and the class. nil (the default) injects unclassified
// faults, which upper layers treat as permanent.
func (d *FaultDevice) SetErrorClass(class error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.class = class
}

// errf builds an injected fault, folding in the armed error class.
// Caller holds d.mu.
func (d *FaultDevice) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.class != nil {
		return fmt.Errorf("%w (%w): %s", ErrInjected, d.class, msg)
	}
	return fmt.Errorf("%w: %s", ErrInjected, msg)
}

// Disarm clears all pending faults.
func (d *FaultDevice) Disarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readArmed, d.writeArmed, d.syncArmed = false, false, false
}

// InjectedFailures reports how many reads and writes were failed.
func (d *FaultDevice) InjectedFailures() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failedReads, d.failedWrite
}

// BlockSize implements Device.
func (d *FaultDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *FaultDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadVec implements Device. A request consumes one unit of the armed
// budget per block regardless of segmentation, and the failure is
// block-granular: a vec that exhausts the budget mid-transfer completes
// exactly the covered prefix — which may end in the middle of a segment —
// and fails with a PartialError counting blocks across all segments, the
// way a controller dying mid-request leaves a prefix transferred.
func (d *FaultDevice) ReadVec(fid, start uint64, v BlockVec) error {
	n := v.Len()
	d.mu.Lock()
	if d.readArmed && d.readsLeft < n {
		// The failure consumes the rest of the budget: once the device has
		// failed, all later reads fail too, as documented.
		done := d.readsLeft
		d.readsLeft = 0
		d.failedReads++
		ferr := d.errf("read of %d blocks at %d", n, start)
		d.mu.Unlock()
		if done > 0 {
			if err := d.inner.ReadVec(fid, start, v.Slice(0, done)); err != nil {
				return err
			}
		}
		return &PartialError{Done: done, Err: ferr}
	}
	if d.readArmed {
		d.readsLeft -= n
	}
	d.mu.Unlock()
	return d.inner.ReadVec(fid, start, v)
}

// WriteVec implements Device with the same block-granular budget rule as
// ReadVec.
func (d *FaultDevice) WriteVec(fid, start uint64, v BlockVec) error {
	n := v.Len()
	d.mu.Lock()
	if d.writeArmed && d.writesLeft < n {
		done := d.writesLeft
		d.writesLeft = 0
		d.failedWrite++
		ferr := d.errf("write of %d blocks at %d", n, start)
		d.mu.Unlock()
		if done > 0 {
			if err := d.inner.WriteVec(fid, start, v.Slice(0, done)); err != nil {
				return err
			}
		}
		return &PartialError{Done: done, Err: ferr}
	}
	if d.writeArmed {
		d.writesLeft -= n
	}
	d.mu.Unlock()
	return d.inner.WriteVec(fid, start, v)
}

// Discard implements Device; fault injection targets data and barriers
// only, and the discard is not forwarded.
func (d *FaultDevice) Discard(_, _, _ uint64) error { return nil }

// Sync implements Device. An armed sync budget fails the call without
// reaching the inner device, the way a flush command times out at a dying
// controller before any durability is established.
func (d *FaultDevice) Sync(fid uint64) error {
	d.mu.Lock()
	if d.syncArmed {
		if d.syncsLeft <= 0 {
			d.failedSyncs++
			err := d.errf("sync (%d failed)", d.failedSyncs)
			d.mu.Unlock()
			return err
		}
		d.syncsLeft--
	}
	d.mu.Unlock()
	return d.inner.Sync(fid)
}

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }
