package thinp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// twinPools builds two pools with identical seeds and configuration so one
// can be driven block-at-a-time and the other vectored, and every piece of
// resulting state compared.
func twinPools(t *testing.T, dataBlocks uint64, mkOpts func() Options) (a, b *Pool) {
	t.Helper()
	build := func() *Pool {
		data := storage.NewMemDevice(blockSize, dataBlocks)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
		p, err := CreatePool(data, meta, mkOpts())
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		return p
	}
	return build(), build()
}

// TestRangeMatchesBlockwiseThin cross-checks the vectored thin path against
// the per-block path on a random workload with holes and mid-range
// provisioning, under both allocators and with the dummy policy firing.
func TestRangeMatchesBlockwiseThin(t *testing.T) {
	cases := []struct {
		name   string
		mkOpts func() Options
	}{
		{"sequential", func() Options {
			return Options{
				Allocator: NewSequentialAllocator(),
				Entropy:   prng.NewSeededEntropy(11),
				DummySrc:  prng.NewSource(12),
			}
		}},
		{"random", func() Options {
			return Options{
				Allocator: NewRandomAllocator(prng.NewSource(13)),
				Entropy:   prng.NewSeededEntropy(11),
				DummySrc:  prng.NewSource(12),
			}
		}},
		{"dummy-policy", func() Options {
			return Options{
				Allocator: NewRandomAllocator(prng.NewSource(13)),
				Policy:    &fixedPolicy{watch: 1, target: 2, count: 2},
				Entropy:   prng.NewSeededEntropy(11),
				DummySrc:  prng.NewSource(12),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const virt = 96
			pa, pb := twinPools(t, 1024, tc.mkOpts)
			for _, p := range []*Pool{pa, pb} {
				for id := 1; id <= 2; id++ {
					if err := p.CreateThin(id, virt); err != nil {
						t.Fatal(err)
					}
				}
			}
			ta, err := pa.Thin(1)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := pb.Thin(1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 100; i++ {
				start := uint64(rng.Intn(virt))
				n := uint64(rng.Intn(virt-int(start))) + 1
				buf := make([]byte, n*blockSize)
				if rng.Intn(3) > 0 {
					rng.Read(buf)
					// Per-block on pool A...
					for j := uint64(0); j < n; j++ {
						if err := storage.WriteBlocks(ta, start+j, buf[j*blockSize:(j+1)*blockSize]); err != nil {
							t.Fatalf("WriteBlocks: %v", err)
						}
					}
					// ...vectored on pool B.
					if err := storage.WriteBlocks(tb, start, buf); err != nil {
						t.Fatalf("WriteBlocks: %v", err)
					}
				} else {
					gotA := make([]byte, n*blockSize)
					for j := uint64(0); j < n; j++ {
						if err := storage.ReadBlocks(ta, start+j, gotA[j*blockSize:(j+1)*blockSize]); err != nil {
							t.Fatalf("ReadBlocks: %v", err)
						}
					}
					gotB := make([]byte, n*blockSize)
					if err := storage.ReadBlocks(tb, start, gotB); err != nil {
						t.Fatalf("ReadBlocks: %v", err)
					}
					if !bytes.Equal(gotA, gotB) {
						t.Fatalf("read mismatch at %d (%d blocks)", start, n)
					}
				}
			}
			for _, p := range []*Pool{pa, pb} {
				if err := p.CheckIntegrity(); err != nil {
					t.Fatalf("CheckIntegrity: %v", err)
				}
			}
			// Both paths must converge to identical pool state: same
			// mappings, same allocations, same dummy traffic.
			for id := 1; id <= 2; id++ {
				blksA, err := pa.PhysicalBlocks(id)
				if err != nil {
					t.Fatal(err)
				}
				blksB, err := pb.PhysicalBlocks(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(blksA) != len(blksB) {
					t.Fatalf("thin %d: %d vs %d physical blocks", id, len(blksA), len(blksB))
				}
				for i := range blksA {
					if blksA[i] != blksB[i] {
						t.Fatalf("thin %d: physical block %d differs: %d vs %d", id, i, blksA[i], blksB[i])
					}
				}
			}
			if pa.DummyBlocksWritten() != pb.DummyBlocksWritten() {
				t.Fatalf("dummy blocks: %d vs %d", pa.DummyBlocksWritten(), pb.DummyBlocksWritten())
			}
			// Full-volume vectored read must equal per-block read.
			full := virt * blockSize
			gotA := make([]byte, full)
			gotB := make([]byte, full)
			for j := uint64(0); j < virt; j++ {
				if err := storage.ReadBlocks(ta, j, gotA[j*blockSize:(j+1)*blockSize]); err != nil {
					t.Fatal(err)
				}
			}
			if err := storage.ReadBlocks(tb, 0, gotB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotA, gotB) {
				t.Fatal("final volume content diverges")
			}
		})
	}
}

func TestThinRangeValidation(t *testing.T) {
	p, _, _ := newTestPool(t, 128, Options{})
	if err := p.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, blockSize+1)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned err = %v, want ErrBadBuffer", err)
	}
	if err := storage.ReadBlocks(thin, 14, make([]byte, 3*blockSize)); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("overrun err = %v, want ErrOutOfRange", err)
	}
	if err := storage.WriteBlocks(thin, 0, nil); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
	if p.AllocatedBlocks() != 0 {
		t.Fatal("failed range writes provisioned blocks")
	}
}

// TestThinRangeFaultPropagation arms a fault under the data device and
// verifies the vectored write reports it and leaves the pool consistent.
func TestThinRangeFaultPropagation(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFaultDevice(inner)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(4)
	err = storage.WriteBlocks(thin, 0, bytes.Repeat([]byte{0xCD}, 16*blockSize))
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool inconsistent after injected fault: %v", err)
	}
	// The device completed exactly 4 blocks before the fault (partial
	// completion is block-granular); their provisions survive with their
	// data intact, while every provision whose data never landed is
	// unwound and reads back as zeros, not stale physical content.
	if got := p.AllocatedBlocks(); got != 4 {
		t.Fatalf("allocated = %d after partially completed range write, want 4", got)
	}
	fd.Disarm()
	readBack := make([]byte, 16*blockSize)
	if err := storage.ReadBlocks(thin, 0, readBack); err != nil {
		t.Fatal(err)
	}
	for i, b := range readBack {
		want := byte(0)
		if i < 4*blockSize {
			want = 0xCD
		}
		if b != want {
			t.Fatalf("byte %d = %#x after faulted write, want %#x", i, b, want)
		}
	}
	// The volume remains usable after the fault clears.
	if err := storage.WriteBlocks(thin, 0, make([]byte, 16*blockSize)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	if err := storage.ReadBlocks(thin, 0, make([]byte, 16*blockSize)); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
}

// TestBatchProvisionIntegrity provisions large ranges in one call and
// checks the pool invariants and the per-provision dummy trigger count.
func TestBatchProvisionIntegrity(t *testing.T) {
	pol := &fixedPolicy{watch: 1, target: 2, count: 1}
	p, _, _ := newTestPool(t, 4096, Options{
		Policy:   pol,
		Entropy:  prng.NewSeededEntropy(5),
		DummySrc: prng.NewSource(6),
	})
	if err := p.CreateThin(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 512); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 256*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity after batch provisioning: %v", err)
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 256 {
		t.Fatalf("mapped = %d, want 256", mapped)
	}
	// The policy is consulted once per provisioned block (Sec. IV-B
	// trigger semantics survive batching).
	if p.DummyBlocksWritten() != 256 {
		t.Fatalf("dummy blocks = %d, want 256 (one per provision)", p.DummyBlocksWritten())
	}
	// Overwriting the same range provisions nothing and fires nothing.
	before := p.DummyBlocksWritten()
	if err := storage.WriteBlocks(thin, 0, make([]byte, 256*blockSize)); err != nil {
		t.Fatal(err)
	}
	if p.DummyBlocksWritten() != before {
		t.Fatal("overwrite fired the dummy policy")
	}
}

// TestProvisionUnwindOnDummyFailure arms a fault so the dummy-write noise
// lands on a dead device: the triggering provision must be unwound, leaving
// the vblock unmapped (reads zeros) and the pool consistent.
func TestProvisionUnwindOnDummyFailure(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFaultDevice(inner)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{
		Policy:   &fixedPolicy{watch: 1, target: 2, count: 1},
		Entropy:  prng.NewSeededEntropy(8),
		DummySrc: prng.NewSource(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if err := p.CreateThin(id, 64); err != nil {
			t.Fatal(err)
		}
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(0) // the very first write — the dummy noise — fails
	src := bytes.Repeat([]byte{0xAB}, blockSize)
	if err := storage.WriteBlocks(thin, 5, src); err == nil {
		t.Fatal("write with failing dummy noise succeeded")
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool inconsistent after unwound provision: %v", err)
	}
	if got := p.AllocatedBlocks(); got != 0 {
		t.Fatalf("allocated = %d after unwind, want 0", got)
	}
	fd.Disarm()
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(thin, 5, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwound vblock byte %d = %#x, want 0 (hole)", i, b)
		}
	}
}

func TestDeleteThinClearsPendingAllocations(t *testing.T) {
	p, _, _ := newTestPool(t, 256, Options{})
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p.PendingAllocations(); got != 8 {
		t.Fatalf("pending = %d, want 8", got)
	}
	if err := p.DeleteThin(1); err != nil {
		t.Fatal(err)
	}
	// The freed blocks must leave the transaction record like discard
	// does; otherwise PendingAllocations over-counts and a rollback would
	// re-mark freed blocks allocated.
	if got := p.PendingAllocations(); got != 0 {
		t.Fatalf("pending after DeleteThin = %d, want 0", got)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestThinDiscardRun exercises the vectored TRIM path: a run-length
// discard over a mix of mapped and unmapped blocks frees exactly the
// mapped ones.
func TestThinDiscardRun(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 256)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 128); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// Map blocks 0..15 and 32..39, leaving a hole in between.
	if err := storage.WriteBlocks(thin, 0, bytes.Repeat([]byte{0xAB}, 16*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 32, bytes.Repeat([]byte{0xAB}, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	// Discard [8, 36): 8 mapped + 16 holes + 4 mapped.
	if err := thin.Discard(0, 8, 28); err != nil {
		t.Fatal(err)
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 12 {
		t.Fatalf("mapped = %d after range discard, want 12", mapped)
	}
	if got := p.AllocatedBlocks(); got != 12 {
		t.Fatalf("allocated = %d after range discard, want 12", got)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Discarded blocks read back as zeros; surviving blocks keep data.
	buf := make([]byte, blockSize)
	for _, vb := range []uint64{8, 15, 35} {
		if err := storage.ReadBlocks(thin, vb, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 {
			t.Fatalf("vblock %d not zero after discard", vb)
		}
	}
	for _, vb := range []uint64{0, 7, 36, 39} {
		if err := storage.ReadBlocks(thin, vb, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xAB {
			t.Fatalf("vblock %d lost its data", vb)
		}
	}
	// Out-of-range and empty ranges behave like the read/write range ops.
	if err := thin.Discard(0, 120, 16); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("overrun discard err = %v, want ErrOutOfRange", err)
	}
	if err := thin.Discard(0, 0, 0); err != nil {
		t.Fatalf("empty discard: %v", err)
	}
	// Round-trip: the discarded state survives commit and reload.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(13)})
	if err != nil {
		t.Fatal(err)
	}
	reMapped, err := re.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if reMapped != 12 {
		t.Fatalf("mapped after reload = %d, want 12", reMapped)
	}
}
