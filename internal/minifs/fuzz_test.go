package minifs

import (
	"bytes"
	"fmt"
	"testing"

	"mobiceal/internal/storage"
)

// The fuzzed device is fuzzBlocks blocks of fuzzBlockSize bytes. An input
// is the image's leading bytes and the rest reads as zeros, so seeds are
// stored without their zero tail.
const (
	fuzzBlockSize = 512
	fuzzBlocks    = 64
)

func fuzzDevice(t testing.TB, image []byte) *storage.MemDevice {
	dev := storage.NewMemDevice(fuzzBlockSize, fuzzBlocks)
	full := make([]byte, fuzzBlockSize*fuzzBlocks)
	copy(full, image)
	if err := storage.WriteBlocks(dev, 0, full); err != nil {
		t.Fatal(err)
	}
	return dev
}

// fuzzSeeds builds small valid images: freshly formatted; holding files,
// one reaching its indirect block, after a Sync; and the same with a
// further transaction sealed in the journal but not yet applied in place,
// so Mount must replay it.
func fuzzSeeds(t testing.TB) [][]byte {
	dev := storage.NewMemDevice(fuzzBlockSize, fuzzBlocks)
	fs, err := Format(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		img, err := storage.ReadFull(dev, 0, fuzzBlocks)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.TrimRight(img, "\x00")
	}
	seeds := [][]byte{image()}

	write := func(name string, off int64, content string) {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte(content), off); err != nil {
			t.Fatal(err)
		}
	}
	write("notes.txt", 0, "minifs fuzz seed: a short file in one direct block")
	write("sparse", 11*fuzzBlockSize, "past the direct blocks, through the indirect block")
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, image())

	before, err := storage.ReadFull(dev, fs.sb.bitmapStart, fs.sb.bitmapBlocks+fs.sb.inodeBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("notes.txt"); err != nil {
		t.Fatal(err)
	}
	write("later", 0, "committed in the journal only")
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Undo the in-place application: the crash point after the seal.
	if err := storage.WriteBlocks(dev, fs.sb.bitmapStart, before); err != nil {
		t.Fatal(err)
	}
	return append(seeds, image())
}

// FuzzMount mounts arbitrary images, journal replay included. Besides the
// generated seeds, testdata/fuzz/FuzzMount holds the formatted image (its
// journal sealed by Format's Sync) and inputs that crashed earlier
// versions: a root directory size that sized the read buffer, and a
// directory entry naming an inode past the table. Mount must
// return an error or a file system that answers List, Open, ReadAt,
// CheckIntegrity and Sync with values or errors — never a panic, a hang or
// an allocation sized by an unchecked field. A successful Sync must leave
// the on-disk metadata equal to a full marshal of memory, and a file
// system that passed CheckIntegrity must remount to the same names.
func FuzzMount(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		dev := fuzzDevice(t, image)
		fs, err := Mount(dev)
		if err != nil {
			return
		}
		names := fs.List()
		buf := make([]byte, 3*fuzzBlockSize)
		for _, name := range names {
			file, err := fs.Open(name)
			if err != nil {
				t.Fatalf("listed name %q does not open: %v", name, err)
			}
			file.ReadAt(buf, 0)
			file.ReadAt(buf, file.Size()/2)
		}
		consistent := fs.CheckIntegrity() == nil
		if err := fs.Sync(); err != nil {
			return
		}
		bitmap, inodes := regions(t, fs)
		if !bytes.Equal(bitmap, fs.bitmap) || !bytes.Equal(inodes, fullInodes(fs)) {
			t.Fatal("on-disk metadata differs from memory after Sync")
		}
		if !consistent {
			return
		}
		again, err := Mount(dev)
		if err != nil {
			t.Fatalf("remount after Sync: %v", err)
		}
		if err := again.CheckIntegrity(); err != nil {
			t.Fatalf("remount after Sync: %v", err)
		}
		if got := fmt.Sprint(again.List()); got != fmt.Sprint(names) {
			t.Fatalf("remount lists %s, want %v", got, names)
		}
	})
}

// TestFuzzSeedsMount keeps the generated seeds meaningful: each mounts
// clean, and the last needs its journal replayed to show the final Sync.
func TestFuzzSeedsMount(t *testing.T) {
	want := []string{"[]", "[notes.txt sparse]", "[later sparse]"}
	for i, seed := range fuzzSeeds(t) {
		fs, err := Mount(fuzzDevice(t, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := fs.CheckIntegrity(); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if got := fmt.Sprint(fs.List()); got != want[i] {
			t.Fatalf("seed %d lists %s, want %s", i, got, want[i])
		}
	}
}
