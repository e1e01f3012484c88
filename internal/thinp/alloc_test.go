package thinp

import (
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestThinOverwriteNoAllocs pins the steady-state allocation cost of the
// thin I/O hot path: overwriting and reading an already-provisioned block
// through the scatter-gather contract must not allocate. The stack-backed
// small-vec in storage.BlockVec (single-segment vecs and Slice results
// carry their segment inline) is what keeps this at zero; this assertion
// keeps it from regressing.
func TestThinOverwriteNoAllocs(t *testing.T) {
	data := storage.NewMemDevice(4096, 1<<12)
	meta := storage.NewMemDevice(4096, MetaBlocksNeeded(1<<12, 4096))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 1<<12); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*4096)
	v := storage.Vec(4096, buf)
	// Provision the blocks and materialize the MemDevice slabs so the
	// measured loop is pure steady-state overwrite.
	if err := thin.WriteVec(0, 0, v); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := thin.WriteVec(0, 0, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("overwrite WriteVec allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := thin.ReadVec(0, 0, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadVec allocates %.1f/op, want 0", allocs)
	}
	// The WriteBlocks/ReadBlocks convenience wrappers build their
	// single-segment vec inline; the small-vec keeps them free too.
	one := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := storage.WriteBlocks(thin, 7, one); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("overwrite WriteBlocks allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := storage.ReadBlocks(thin, 7, one); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadBlocks allocates %.1f/op, want 0", allocs)
	}
}
