package thinp

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// vecOver carves buf into a random whole-block segmentation.
func vecOver(src *prng.Source, buf []byte) storage.BlockVec {
	v := storage.Vec(blockSize)
	n := len(buf) / blockSize
	for off := 0; off < n; {
		seg := 1 + int(src.Uint64n(4))
		if seg > n-off {
			seg = n - off
		}
		v = v.Append(buf[off*blockSize : (off+seg)*blockSize])
		off += seg
	}
	return v
}

// TestVecMatchesFlatThin cross-checks the scatter-gather thin path against
// the flat range path on a random workload with holes, overwrites and
// mid-range provisioning, under both allocators and with the dummy policy
// firing — the thin-layer leg of the vec-vs-flat equivalence suite.
func TestVecMatchesFlatThin(t *testing.T) {
	cases := []struct {
		name   string
		mkOpts func() Options
	}{
		{"sequential", func() Options {
			return Options{
				Allocator: NewSequentialAllocator(),
				Entropy:   prng.NewSeededEntropy(21),
				DummySrc:  prng.NewSource(22),
			}
		}},
		{"random-alloc", func() Options {
			return Options{
				Allocator: NewRandomAllocator(prng.NewSource(23)),
				Entropy:   prng.NewSeededEntropy(21),
				DummySrc:  prng.NewSource(22),
			}
		}},
		{"dummy-policy", func() Options {
			return Options{
				Allocator: NewRandomAllocator(prng.NewSource(23)),
				Policy:    &fixedPolicy{watch: 1, target: 2, count: 3},
				Entropy:   prng.NewSeededEntropy(21),
				DummySrc:  prng.NewSource(22),
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
			src := prng.NewSource(777)
			for i := 0; i < 120; i++ {
				start := src.Uint64n(virt)
				n := 1 + src.Uint64n(virt-start)
				buf := make([]byte, n*blockSize)
				if src.Uint64n(3) > 0 {
					if _, err := src.Read(buf); err != nil {
						t.Fatal(err)
					}
					// Flat on pool A...
					if err := storage.WriteBlocks(ta, start, buf); err != nil {
						t.Fatalf("WriteBlocks: %v", err)
					}
					// ...scatter-gather on pool B, random segmentation.
					if err := tb.WriteVec(0, start, vecOver(src, buf)); err != nil {
						t.Fatalf("WriteVec: %v", err)
					}
				} else {
					gotA := make([]byte, n*blockSize)
					if err := storage.ReadBlocks(ta, start, gotA); err != nil {
						t.Fatalf("ReadBlocks: %v", err)
					}
					gotB := make([]byte, n*blockSize)
					if err := tb.ReadVec(0, start, vecOver(src, gotB)); err != nil {
						t.Fatalf("ReadVec: %v", err)
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
			// Both paths converge to identical pool state.
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
						t.Fatalf("thin %d: physical block %d differs", id, i)
					}
				}
			}
			if pa.DummyBlocksWritten() != pb.DummyBlocksWritten() {
				t.Fatalf("dummy blocks: %d vs %d", pa.DummyBlocksWritten(), pb.DummyBlocksWritten())
			}
			// Full-volume reads agree.
			gotA := make([]byte, virt*blockSize)
			gotB := make([]byte, virt*blockSize)
			if err := storage.ReadBlocks(ta, 0, gotA); err != nil {
				t.Fatal(err)
			}
			if err := tb.ReadVec(0, 0, vecOver(src, gotB)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotA, gotB) {
				t.Fatal("final volume content diverges")
			}
		})
	}
}

// TestThinVecPartialWriteUnwind drives a scatter-gather write into a
// fault-injected data device and asserts the thin layer's partial-
// completion contract holds for vecs: the transferred prefix keeps its
// provisions, provisions beyond it are discarded (they'd read back stale
// physical content), and the PartialError's Done count survives the
// extent/segment translation.
func TestThinVecPartialWriteUnwind(t *testing.T) {
	const virt = 32
	data := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFaultDevice(data)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{
		Allocator: NewSequentialAllocator(),
		Entropy:   prng.NewSeededEntropy(5),
		DummySrc:  prng.NewSource(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, virt); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 fresh blocks via a 3-segment vec, write budget dies after 5.
	payload := make([]byte, 8*blockSize)
	for i := range payload {
		payload[i] = byte(i%250) + 1
	}
	v := storage.Vec(blockSize, payload[:2*blockSize], payload[2*blockSize:6*blockSize], payload[6*blockSize:])
	fd.FailWritesAfter(5)
	werr := thin.WriteVec(0, 4, v)
	var pe *storage.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("error %v, want PartialError", werr)
	}
	if pe.Done != 5 {
		t.Fatalf("Done=%d, want 5", pe.Done)
	}
	// The landed prefix keeps its mappings; the rest was unwound.
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 5 {
		t.Fatalf("mapped=%d, want 5 (prefix keeps provisions)", mapped)
	}
	fd.Disarm()
	got := make([]byte, 8*blockSize)
	if err := thin.ReadVec(0, 4, storage.Vec(blockSize, got[:3*blockSize], got[3*blockSize:])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5*blockSize], payload[:5*blockSize]) {
		t.Fatal("landed prefix content mismatch")
	}
	for i := 5 * blockSize; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatal("unwound suffix must read as zeros")
		}
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestNoiseStaging pins the staged dummy-noise satellite: pools with a
// policy pre-generate noise payloads outside the mapping lock before
// provisioning passes, dummy writes consume the stage, and policy-less
// pools never stage.
func TestNoiseStaging(t *testing.T) {
	p, _, _ := newTestPool(t, 2048, Options{
		Allocator: NewSequentialAllocator(),
		Policy:    &fixedPolicy{watch: 1, target: 2, count: 4},
	})
	if err := p.CreateThin(1, 256); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 1024); err != nil {
		t.Fatal(err)
	}
	if got := p.StagedNoiseBlocks(); got != 0 {
		t.Fatalf("fresh pool staged %d blocks", got)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// First provisioning write: the stage is stocked on the way in, and
	// the burst (count=4) consumes from it.
	if err := storage.WriteBlocks(thin, 0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p.StagedNoiseBlocks(); got != noiseStageTarget-4 {
		t.Fatalf("staged=%d after one burst, want %d", got, noiseStageTarget-4)
	}
	if got := p.DummyBlocksWritten(); got != 4 {
		t.Fatalf("dummy blocks=%d, want 4", got)
	}
	// The next provisioning write tops the stage back up before consuming.
	if err := storage.WriteBlocks(thin, 1, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p.StagedNoiseBlocks(); got != noiseStageTarget-4 {
		t.Fatalf("staged=%d after refill+burst, want %d", got, noiseStageTarget-4)
	}
	// Staged noise must be keystream, not junk: every dummy block on the
	// target thin differs from zeros and from every other dummy block.
	tgt, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}
	vbs, err := p.MappedVBlocks(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbs) != 8 {
		t.Fatalf("target thin has %d dummy blocks, want 8", len(vbs))
	}
	zero := make([]byte, blockSize)
	seen := make(map[string]bool)
	for _, vb := range vbs {
		buf := make([]byte, blockSize)
		if err := storage.ReadBlocks(tgt, vb, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf, zero) {
			t.Fatalf("dummy block %d is zeros", vb)
		}
		if seen[string(buf)] {
			t.Fatalf("dummy block %d repeats another dummy block", vb)
		}
		seen[string(buf)] = true
	}

	// Overwrites (no provisioning) do not touch the stage.
	before := p.StagedNoiseBlocks()
	if err := storage.WriteBlocks(thin, 0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p.StagedNoiseBlocks(); got != before {
		t.Fatalf("overwrite changed stage: %d -> %d", before, got)
	}

	// Policy-less pools never stage.
	p2, _, _ := newTestPool(t, 256, Options{Allocator: NewSequentialAllocator()})
	if err := p2.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	t2, err := p2.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(t2, 0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p2.StagedNoiseBlocks(); got != 0 {
		t.Fatalf("policy-less pool staged %d blocks", got)
	}
}
