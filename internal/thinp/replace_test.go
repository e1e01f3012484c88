package thinp

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// mappedPB reads thin id's current mapping for vb through the pool's own
// locking discipline.
func mappedPB(t *testing.T, p *Pool, id int, vb uint64) (uint64, bool) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	tm, ok := p.thins[id]
	if !ok {
		t.Fatalf("thin %d missing", id)
	}
	st := p.stripeOf(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return tm.pt.get(vb)
}

// TestReplaceBlockReallocates pins the reallocate-on-write contract:
// replacing a committed block moves its mapping to a DIFFERENT physical
// block (the old placement is quarantined until the next flip, so the
// allocator cannot hand it straight back), the new payload reads back, an
// unmapped vblock provisions like a first write, and the bookkeeping
// survives a commit and reopen.
func TestReplaceBlockReallocates(t *testing.T) {
	const dataBlocks = 512
	const virt = 64
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(77)),
		Entropy:   prng.NewSeededEntropy(78),
		DummySrc:  prng.NewSource(79),
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

	a := bytes.Repeat([]byte{0xaa}, blockSize)
	b := bytes.Repeat([]byte{0xbb}, blockSize)
	if err := storage.WriteBlocks(thin, 5, a); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	pb0, ok := mappedPB(t, p, 1, 5)
	if !ok {
		t.Fatal("vb 5 unmapped after write")
	}

	if err := thin.ReplaceBlock(0, 5, b); err != nil {
		t.Fatalf("ReplaceBlock: %v", err)
	}
	pb1, ok := mappedPB(t, p, 1, 5)
	if !ok {
		t.Fatal("vb 5 unmapped after replace")
	}
	if pb1 == pb0 {
		t.Fatalf("replace reused physical block %d; want a fresh placement", pb0)
	}
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(thin, 5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("payload after replace does not read back")
	}

	// First-touch replace: an unmapped vblock simply provisions.
	if _, ok := mappedPB(t, p, 1, 9); ok {
		t.Fatal("vb 9 unexpectedly mapped")
	}
	if err := thin.ReplaceBlock(0, 9, a); err != nil {
		t.Fatalf("ReplaceBlock(unmapped): %v", err)
	}
	if _, ok := mappedPB(t, p, 1, 9); !ok {
		t.Fatal("vb 9 unmapped after replace")
	}

	// Validation mirrors WriteBlocks.
	if err := thin.ReplaceBlock(0, 5, a[:8]); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("short buffer: got %v, want ErrBadBuffer", err)
	}
	if err := thin.ReplaceBlock(0, virt, a); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out of range: got %v, want ErrOutOfRange", err)
	}

	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenPool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(80)),
		Entropy:   prng.NewSeededEntropy(81),
		DummySrc:  prng.NewSource(82),
	})
	if err != nil {
		t.Fatal(err)
	}
	rthin, err := reopened.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(rthin, 5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("replaced payload lost across reopen")
	}
	if err := reopened.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
