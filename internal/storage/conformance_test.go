package storage_test

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"mobiceal/internal/baseline/defy"
	"mobiceal/internal/baseline/hive"
	"mobiceal/internal/dm"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

const (
	confBS     = 512
	confBlocks = 64
)

// confCase is one Device implementation under the conformance suite.
type confCase struct {
	name  string
	build func(t *testing.T) storage.Device
	// readOnly devices reject every write with ErrReadOnly.
	readOnly bool
	// zero devices read zeros whatever was written (dm-zero).
	zero bool
	// closes marks devices whose I/O fails with ErrClosed after Close.
	closes bool
}

func confMem(t *testing.T) storage.Device { return storage.NewMemDevice(confBS, confBlocks) }

func confCipher(t *testing.T) xcrypto.SectorCipher {
	t.Helper()
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i * 7)
	}
	c, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func confThin(t *testing.T) storage.Device {
	t.Helper()
	const dataBlocks = 4 * confBlocks
	data := storage.NewMemDevice(confBS, dataBlocks)
	meta := storage.NewMemDevice(confBS, thinp.MetaBlocksNeeded(dataBlocks, confBS))
	p, err := thinp.CreatePool(data, meta, thinp.Options{Entropy: prng.NewSeededEntropy(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, confBlocks); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	return thin
}

func confCases() []confCase {
	return []confCase{
		{name: "mem", build: confMem, closes: true},
		{name: "mem-noise", build: func(t *testing.T) storage.Device {
			return storage.NewMemDeviceBackground(confBS, confBlocks, storage.NewNoiseBackground(3))
		}, closes: true},
		{name: "file", build: func(t *testing.T) storage.Device {
			d, err := storage.CreateFileDevice(filepath.Join(t.TempDir(), "img"), confBS, confBlocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}, closes: true},
		{name: "slice", build: func(t *testing.T) storage.Device {
			d, err := storage.NewSliceDevice(storage.NewMemDevice(confBS, confBlocks+9), 5, confBlocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{name: "stats", build: func(t *testing.T) storage.Device {
			return storage.NewStatsDevice(confMem(t))
		}, closes: true},
		{name: "fault", build: func(t *testing.T) storage.Device {
			return storage.NewFaultDevice(confMem(t))
		}, closes: true},
		{name: "flaky", build: func(t *testing.T) storage.Device {
			return storage.NewFlakyDevice(confMem(t), storage.FlakyOptions{Seed: 1})
		}, closes: true},
		{name: "crash", build: func(t *testing.T) storage.Device {
			return storage.NewCrashDevice(confMem(t))
		}},
		{name: "crash-image", build: func(t *testing.T) storage.Device {
			img, err := storage.NewCrashDevice(confMem(t)).CrashImage(0)
			if err != nil {
				t.Fatal(err)
			}
			return img
		}},
		{name: "snapshot", build: func(t *testing.T) storage.Device {
			mem := storage.NewMemDeviceBackground(confBS, confBlocks, storage.NewNoiseBackground(9))
			if err := storage.WriteBlocks(mem, 10, bytes.Repeat([]byte{0xa5}, 7*confBS)); err != nil {
				t.Fatal(err)
			}
			return mem.Snapshot()
		}, readOnly: true},
		{name: "cost", build: func(t *testing.T) storage.Device {
			var clock vclock.Clock
			return vclock.NewCostDevice(confMem(t), vclock.NewMeter(&clock, vclock.Nexus4()))
		}, closes: true},
		{name: "crypt", build: func(t *testing.T) storage.Device {
			return dm.NewCrypt(confMem(t), confCipher(t), nil)
		}},
		{name: "linear", build: func(t *testing.T) storage.Device {
			d, err := dm.NewLinear(storage.NewMemDevice(confBS, confBlocks+3), 3, confBlocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{name: "zero", build: func(t *testing.T) storage.Device {
			return dm.NewZero(confBS, confBlocks)
		}, zero: true},
		{name: "thin", build: confThin},
		{name: "crypt-over-thin", build: func(t *testing.T) storage.Device {
			return dm.NewCrypt(confThin(t), confCipher(t), nil)
		}},
		{name: "hive", build: func(t *testing.T) storage.Device {
			d, err := hive.New(storage.NewMemDevice(confBS, 4*confBlocks), make([]byte, 32),
				hive.Config{Entropy: prng.NewSeededEntropy(2), Src: prng.NewSource(2)})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{name: "defy", build: func(t *testing.T) storage.Device {
			// The log has no cleaner: size it for every write the suite makes.
			d, err := defy.New(storage.NewMemDevice(confBS, 64*confBlocks), confBlocks,
				defy.Config{Entropy: prng.NewSeededEntropy(4)})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
}

// confVec carves buf into a random segmentation of whole blocks.
func confVec(src *prng.Source, bs int, buf []byte) storage.BlockVec {
	v := storage.Vec(bs)
	n := len(buf) / bs
	for off := 0; off < n; {
		seg := 1 + int(src.Uint64n(4))
		if seg > n-off {
			seg = n - off
		}
		v = v.Append(buf[off*bs : (off+seg)*bs])
		off += seg
	}
	return v
}

// TestDeviceConformance holds every Device implementation to the one I/O
// contract: geometry validation, the zero-length no-op, and random
// multi-segment round trips that must match a flat MemDevice reference.
func TestDeviceConformance(t *testing.T) {
	for _, c := range confCases() {
		t.Run(c.name, func(t *testing.T) {
			dev := c.build(t)
			if dev.BlockSize() != confBS {
				t.Fatalf("BlockSize = %d, want %d", dev.BlockSize(), confBS)
			}
			n := dev.NumBlocks()
			two := make([]byte, 2*confBS)
			write := func(start uint64, v storage.BlockVec) error { return dev.WriteVec(0, start, v) }

			// Out of range: past the end, straddling the end, and a start
			// whose start+len overflows uint64.
			for _, start := range []uint64{n, n - 1, math.MaxUint64 - 1} {
				if err := dev.ReadVec(0, start, storage.VecOne(confBS, two)); !errors.Is(err, storage.ErrOutOfRange) {
					t.Errorf("read of 2 blocks at %d: %v, want ErrOutOfRange", start, err)
				}
				if err := write(start, storage.VecOne(confBS, two)); !c.readOnly && !errors.Is(err, storage.ErrOutOfRange) {
					t.Errorf("write of 2 blocks at %d: %v, want ErrOutOfRange", start, err)
				}
			}
			// A vec counted in another block unit.
			half := storage.Vec(confBS/2, two)
			if err := dev.ReadVec(0, 0, half); !errors.Is(err, storage.ErrBadBuffer) {
				t.Errorf("read of half-block vec: %v, want ErrBadBuffer", err)
			}
			if err := write(0, half); !c.readOnly && !errors.Is(err, storage.ErrBadBuffer) {
				t.Errorf("write of half-block vec: %v, want ErrBadBuffer", err)
			}
			// Writes to a read-only device fail whatever their shape.
			if c.readOnly {
				for _, v := range []storage.BlockVec{storage.VecOne(confBS, two), storage.VecOne(confBS, nil)} {
					if err := write(0, v); !errors.Is(err, storage.ErrReadOnly) {
						t.Errorf("write to read-only device: %v, want ErrReadOnly", err)
					}
				}
			}

			// Establish known content, mirrored in a flat reference.
			src := prng.NewSource(0xc0f + uint64(len(c.name)))
			ref := storage.NewMemDevice(confBS, n)
			image := make([]byte, int(n)*confBS)
			if c.readOnly {
				if err := storage.ReadBlocks(dev, 0, image); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := src.Read(image); err != nil {
					t.Fatal(err)
				}
				if err := write(0, confVec(src, confBS, image)); err != nil {
					t.Fatalf("filling the device: %v", err)
				}
			}
			if !c.zero {
				if err := storage.WriteBlocks(ref, 0, image); err != nil {
					t.Fatal(err)
				}
			}

			// A zero-length vec is a no-op anywhere, even past the end.
			for _, start := range []uint64{0, n, math.MaxUint64} {
				if err := dev.ReadVec(0, start, storage.Vec(confBS)); err != nil {
					t.Errorf("empty read at %d: %v", start, err)
				}
				if err := write(start, storage.VecOne(confBS, nil)); err != nil && !c.readOnly {
					t.Errorf("empty write at %d: %v", start, err)
				}
			}

			for r := 0; r < 150; r++ {
				start := src.Uint64n(n)
				cnt := 1 + src.Uint64n(min(n-start, 20))
				if !c.readOnly && src.Uint64n(2) == 0 {
					buf := make([]byte, int(cnt)*confBS)
					if _, err := src.Read(buf); err != nil {
						t.Fatal(err)
					}
					if err := write(start, confVec(src, confBS, buf)); err != nil {
						t.Fatalf("round %d: write of %d blocks at %d: %v", r, cnt, start, err)
					}
					if !c.zero {
						if err := storage.WriteBlocks(ref, start, buf); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := make([]byte, int(cnt)*confBS)
				if err := dev.ReadVec(0, start, confVec(src, confBS, got)); err != nil {
					t.Fatalf("round %d: read of %d blocks at %d: %v", r, cnt, start, err)
				}
				want := make([]byte, len(got))
				if err := storage.ReadBlocks(ref, start, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: read of %d blocks at %d differs from the reference", r, cnt, start)
				}
			}
			if err := dev.Sync(0); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := dev.Discard(0, 0, n); err != nil {
				t.Fatalf("Discard: %v", err)
			}

			if err := dev.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if c.closes {
				if err := dev.ReadVec(0, 0, storage.VecOne(confBS, two)); !errors.Is(err, storage.ErrClosed) {
					t.Errorf("read after Close: %v, want ErrClosed", err)
				}
				if err := write(0, storage.VecOne(confBS, two)); !errors.Is(err, storage.ErrClosed) {
					t.Errorf("write after Close: %v, want ErrClosed", err)
				}
			}
		})
	}
}

// TestDevicePartialAcrossSegments pins the block-granular PartialError of
// the fault-injecting devices: a vec of 3+4+3 blocks failing at block k
// transfers exactly the first k blocks, cutting at or inside a segment,
// and reports Done = k counted across segment boundaries.
func TestDevicePartialAcrossSegments(t *testing.T) {
	arms := map[string]func(mem storage.Device, k int, write bool) storage.Device{
		"fault": func(mem storage.Device, k int, write bool) storage.Device {
			d := storage.NewFaultDevice(mem)
			if write {
				d.FailWritesAfter(k)
			} else {
				d.FailReadsAfter(k)
			}
			return d
		},
		"flaky": func(mem storage.Device, k int, write bool) storage.Device {
			d := storage.NewFlakyDevice(mem, storage.FlakyOptions{Seed: 1})
			op := storage.FlakyRead
			if write {
				op = storage.FlakyWrite
			}
			d.FailOpAt(op, uint64(k), storage.ErrMedium)
			return d
		},
	}
	payload := make([]byte, 10*confBS)
	for i := range payload {
		payload[i] = byte(i/confBS) + 1
	}
	vecOf := func(buf []byte) storage.BlockVec {
		return storage.Vec(confBS, buf[:3*confBS], buf[3*confBS:7*confBS], buf[7*confBS:])
	}
	for name, arm := range arms {
		for k := 0; k < 10; k++ {
			mem := storage.NewMemDevice(confBS, confBlocks)
			var pe *storage.PartialError
			err := arm(mem, k, true).WriteVec(0, 2, vecOf(payload))
			if !errors.As(err, &pe) || pe.Done != k || !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s write failing at block %d: %v, want PartialError{Done: %d}", name, k, err, k)
			}
			got, err := storage.ReadFull(mem, 2, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:k*confBS], payload[:k*confBS]) || bytes.ContainsAny(got[k*confBS:], "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a") {
				t.Fatalf("%s write failing at block %d: the device does not hold exactly the prefix", name, k)
			}

			if err := storage.WriteBlocks(mem, 2, payload); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, len(payload))
			err = arm(mem, k, false).ReadVec(0, 2, vecOf(dst))
			if !errors.As(err, &pe) || pe.Done != k {
				t.Fatalf("%s read failing at block %d: %v, want PartialError{Done: %d}", name, k, err, k)
			}
			if !bytes.Equal(dst[:k*confBS], payload[:k*confBS]) {
				t.Fatalf("%s read failing at block %d: prefix not transferred", name, k)
			}
		}
	}
}
