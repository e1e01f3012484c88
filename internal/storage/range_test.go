package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

// blockOnly serves every vec one block per inner call.
type blockOnly = plainDevice

// rangeDevices builds one instance of every range-capable device plus the
// fallback wrapper, all with the same geometry.
func rangeDevices(t *testing.T, blockSize int, numBlocks uint64) map[string]Device {
	t.Helper()
	fd, err := CreateFileDevice(filepath.Join(t.TempDir(), "img.bin"), blockSize, numBlocks)
	if err != nil {
		t.Fatalf("CreateFileDevice: %v", err)
	}
	t.Cleanup(func() { _ = fd.Close() })
	parent := NewMemDevice(blockSize, numBlocks+7)
	slice, err := NewSliceDevice(parent, 7, numBlocks)
	if err != nil {
		t.Fatalf("NewSliceDevice: %v", err)
	}
	return map[string]Device{
		"mem":      NewMemDevice(blockSize, numBlocks),
		"memnoise": NewMemDeviceBackground(blockSize, numBlocks, NewNoiseBackground(99)),
		"file":     fd,
		"slice":    slice,
		"stats":    NewStatsDevice(NewMemDevice(blockSize, numBlocks)),
		"fault":    NewFaultDevice(NewMemDevice(blockSize, numBlocks)),
		"fallback": &blockOnly{NewMemDevice(blockSize, numBlocks)},
	}
}

// TestRangeMatchesBlockwise drives each device with a random mix of
// vectored and per-block I/O and cross-checks every vectored result against
// the per-block equivalent.
func TestRangeMatchesBlockwise(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 64
	)
	for name, dev := range rangeDevices(t, blockSize, numBlocks) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			shadow := NewMemDevice(blockSize, numBlocks)
			// Mirror the initial background so unwritten reads compare.
			init := make([]byte, numBlocks*blockSize)
			if err := ReadBlocks(dev, 0, init); err != nil {
				t.Fatalf("initial ReadBlocks: %v", err)
			}
			if err := WriteBlocks(shadow, 0, init); err != nil {
				t.Fatalf("priming shadow: %v", err)
			}
			for i := 0; i < 200; i++ {
				start := uint64(rng.Intn(numBlocks))
				n := uint64(rng.Intn(numBlocks-int(start))) + 1
				buf := make([]byte, n*blockSize)
				if rng.Intn(2) == 0 {
					rng.Read(buf)
					if err := WriteBlocks(dev, start, buf); err != nil {
						t.Fatalf("WriteBlocks(%d, %d blocks): %v", start, n, err)
					}
					// Shadow written per block: must be equivalent.
					for j := uint64(0); j < n; j++ {
						if err := WriteBlocks(shadow, start+j, buf[j*blockSize:(j+1)*blockSize]); err != nil {
							t.Fatalf("shadow WriteBlocks: %v", err)
						}
					}
				} else {
					if err := ReadBlocks(dev, start, buf); err != nil {
						t.Fatalf("ReadBlocks(%d, %d blocks): %v", start, n, err)
					}
					want := make([]byte, n*blockSize)
					for j := uint64(0); j < n; j++ {
						if err := ReadBlocks(shadow, start+j, want[j*blockSize:(j+1)*blockSize]); err != nil {
							t.Fatalf("shadow ReadBlocks: %v", err)
						}
					}
					if !bytes.Equal(buf, want) {
						t.Fatalf("vectored read at %d (%d blocks) diverges from per-block", start, n)
					}
				}
			}
			// Final image must match block for block.
			got := make([]byte, numBlocks*blockSize)
			if err := ReadBlocks(dev, 0, got); err != nil {
				t.Fatalf("final ReadBlocks: %v", err)
			}
			want, err := ReadFull(shadow, 0, numBlocks)
			if err != nil {
				t.Fatalf("final shadow read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("final image diverges from per-block shadow")
			}
		})
	}
}

func TestRangeValidation(t *testing.T) {
	dev := NewMemDevice(512, 8)
	if err := ReadBlocks(dev, 0, make([]byte, 100)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("misaligned read err = %v, want ErrBadBuffer", err)
	}
	if err := WriteBlocks(dev, 6, make([]byte, 3*512)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrun write err = %v, want ErrOutOfRange", err)
	}
	if err := ReadBlocks(dev, 9, nil); err != nil {
		t.Fatalf("zero-length range err = %v, want nil", err)
	}
	if err := WriteBlocks(dev, 0, make([]byte, 8*512)); err != nil {
		t.Fatalf("full-device write: %v", err)
	}
}

func TestStatsDeviceRangeAccounting(t *testing.T) {
	sd := NewStatsDevice(NewMemDevice(512, 32))
	sd.EnableWriteTrace()
	if err := WriteBlocks(sd, 4, make([]byte, 5*512)); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	if err := ReadBlocks(sd, 0, make([]byte, 3*512)); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	st := sd.Stats()
	if st.Writes != 5 || st.BytesWrite != 5*512 {
		t.Fatalf("writes = %d/%d bytes, want 5/%d", st.Writes, st.BytesWrite, 5*512)
	}
	if st.Reads != 3 || st.BytesRead != 3*512 {
		t.Fatalf("reads = %d/%d bytes, want 3/%d", st.Reads, st.BytesRead, 3*512)
	}
	trace := sd.WriteTrace()
	want := []uint64{4, 5, 6, 7, 8}
	if len(trace) != len(want) {
		t.Fatalf("trace length = %d, want %d", len(trace), len(want))
	}
	for i, idx := range want {
		if trace[i] != idx {
			t.Fatalf("trace[%d] = %d, want %d", i, trace[i], idx)
		}
	}
}

func TestFaultDeviceRangeBudget(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(512, 32))
	fd.FailWritesAfter(8)
	// A range within budget succeeds and consumes one unit per block.
	if err := WriteBlocks(fd, 0, make([]byte, 5*512)); err != nil {
		t.Fatalf("in-budget range write: %v", err)
	}
	// The next range would exceed the remaining budget of 3: whole-range
	// failure, like a merged bio erroring out.
	if err := WriteBlocks(fd, 0, make([]byte, 4*512)); !errors.Is(err, ErrInjected) {
		t.Fatalf("over-budget range err = %v, want ErrInjected", err)
	}
	if _, writes := fd.InjectedFailures(); writes != 1 {
		t.Fatalf("failed writes = %d, want 1", writes)
	}
	// Once failed, the device stays failed (the documented arming
	// contract): the rejected range consumed the remaining budget.
	if err := WriteBlocks(fd, 0, make([]byte, 512)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure write err = %v, want ErrInjected", err)
	}
	// Re-arming restores service.
	fd.Disarm()
	if err := WriteBlocks(fd, 0, make([]byte, 512)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

func TestSnapshotRangeRead(t *testing.T) {
	dev := NewMemDeviceBackground(512, 16, NewNoiseBackground(7))
	data := make([]byte, 4*512)
	for i := range data {
		data[i] = byte(i)
	}
	if err := WriteBlocks(dev, 2, data); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	snap := dev.Snapshot()
	got := make([]byte, 16*512)
	if err := ReadBlocks(snap, 0, got); err != nil {
		t.Fatalf("snapshot ReadBlocks: %v", err)
	}
	want, err := ReadFull(&blockOnly{snap}, 0, 16)
	if err != nil {
		t.Fatalf("snapshot per-block read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot vectored read diverges from per-block")
	}
	if err := WriteBlocks(snap, 0, make([]byte, 512)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot range write err = %v, want ErrReadOnly", err)
	}
}
