package minifs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"mobiceal/internal/storage"
)

// fullInodes is the reference serialization of the inode table: every
// inode marshaled at its slot of one region-sized buffer, as Sync did
// before it tracked dirty inodes.
func fullInodes(fs *FS) []byte {
	out := make([]byte, fs.sb.inodeBlocks*uint64(fs.sb.blockSize))
	for i := range fs.inodes {
		marshalInode(&fs.inodes[i], out[i*inodeSize:])
	}
	return out
}

// diffBlocks returns the device addresses of the blocks of a region
// (starting at start) where a and b differ: the transaction a full-diff
// Sync would stage.
func diffBlocks(start uint64, a, b []byte, bs int) []uint64 {
	var out []uint64
	for i := 0; i*bs < len(a); i++ {
		if !bytes.Equal(a[i*bs:(i+1)*bs], b[i*bs:(i+1)*bs]) {
			out = append(out, start+uint64(i))
		}
	}
	return out
}

// regions reads the on-disk bitmap and inode regions.
func regions(t *testing.T, fs *FS) (bitmap, inodes []byte) {
	t.Helper()
	bitmap, err := storage.ReadFull(fs.dev, fs.sb.bitmapStart, fs.sb.bitmapBlocks)
	if err != nil {
		t.Fatal(err)
	}
	inodes, err = storage.ReadFull(fs.dev, fs.sb.inodeStart, fs.sb.inodeBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return bitmap, inodes
}

// equivChecker follows one file system across Syncs and checks each
// successful one against a full re-marshal of the in-memory metadata.
type equivChecker struct {
	t                      *testing.T
	fs                     *FS
	lastBitmap, lastInodes []byte // regions as of the last commit
	commits, journalBlocks uint64
}

func newEquivChecker(t *testing.T, fs *FS) *equivChecker {
	c := &equivChecker{t: t}
	c.reset(fs)
	return c
}

// reset adopts fs, freshly formatted, mounted or synced.
func (c *equivChecker) reset(fs *FS) {
	c.fs = fs
	c.lastBitmap, c.lastInodes = regions(c.t, fs)
	sn := fs.MetricsSnapshot()
	c.commits, c.journalBlocks = sn.JournalCommits, sn.JournalBlocks
}

// failed adopts the state after a failed Sync. Once a transaction is
// sealed it is committed, even if applying it in place failed: the next
// Sync replays it first, so the next diff starts from the journal's
// content overlaid on the in-place regions.
func (c *equivChecker) failed() {
	t, fs := c.t, c.fs
	t.Helper()
	c.reset(fs)
	if !fs.replayPending {
		return
	}
	bs := uint64(fs.sb.blockSize)
	desc, err := storage.ReadFull(fs.dev, fs.sb.jdescStart, fs.sb.jdescBlocks)
	if err != nil {
		t.Fatal(err)
	}
	count := binary.LittleEndian.Uint64(desc[8:])
	entries, err := storage.ReadFull(fs.dev, fs.sb.jdataStart, count)
	if err != nil {
		t.Fatal(err)
	}
	for i := range count {
		abs := binary.LittleEndian.Uint64(desc[jdescHeaderLen+8*i:])
		blk := entries[i*bs : (i+1)*bs]
		if abs < fs.sb.inodeStart {
			copy(c.lastBitmap[(abs-fs.sb.bitmapStart)*bs:], blk)
		} else {
			copy(c.lastInodes[(abs-fs.sb.inodeStart)*bs:], blk)
		}
	}
}

// synced checks the state after a successful Sync: the on-disk regions
// equal a full marshal of memory, and the journal carried exactly the
// blocks that differ from the previous successful Sync.
func (c *equivChecker) synced(label string) {
	t, fs := c.t, c.fs
	t.Helper()
	bitmap, inodes := regions(t, fs)
	if !bytes.Equal(bitmap, fs.bitmap) {
		t.Fatalf("%s: on-disk bitmap differs from memory", label)
	}
	if !bytes.Equal(inodes, fullInodes(fs)) {
		t.Fatalf("%s: on-disk inode table differs from a full marshal", label)
	}
	bs := fs.sb.blockSize
	want := append(diffBlocks(fs.sb.bitmapStart, c.lastBitmap, bitmap, bs),
		diffBlocks(fs.sb.inodeStart, c.lastInodes, inodes, bs)...)
	sn := fs.MetricsSnapshot()
	switch {
	case len(want) == 0 && sn.JournalCommits != c.commits:
		t.Fatalf("%s: committed a transaction with no metadata change", label)
	case len(want) > 0 && sn.JournalCommits != c.commits+1:
		t.Fatalf("%s: %d commits for one Sync with %d changed blocks",
			label, sn.JournalCommits-c.commits, len(want))
	case sn.JournalBlocks-c.journalBlocks != uint64(len(want)):
		t.Fatalf("%s: journaled %d blocks, full diff has %d",
			label, sn.JournalBlocks-c.journalBlocks, len(want))
	}
	if len(want) > 0 {
		desc, err := storage.ReadFull(fs.dev, fs.sb.jdescStart, fs.sb.jdescBlocks)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, binary.LittleEndian.Uint64(desc[8:]))
		for i := range got {
			got[i] = binary.LittleEndian.Uint64(desc[jdescHeaderLen+8*i:])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: journal entries %v, full diff %v", label, got, want)
		}
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	c.reset(fs)
}

// TestSyncMatchesFullMarshal drives random Create/WriteAt/Truncate/Remove/
// Sync/Mount sequences, with device faults injected into some Syncs, and
// checks every successful Sync against a full re-marshal: dirty tracking
// must stage exactly the blocks a whole-region diff finds. Block sizes
// include one that is not a multiple of the inode size, so inodes
// straddle inode-table blocks.
func TestSyncMatchesFullMarshal(t *testing.T) {
	for _, geo := range []struct {
		bs     int
		blocks uint64
		inodes uint32
	}{
		{512, 2048, 64},
		{576, 2048, 48},
		{4096, 384, 128},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("bs=%d/seed=%d", geo.bs, seed), func(t *testing.T) {
				runSyncEquivalence(t, geo.bs, geo.blocks, geo.inodes, seed)
			})
		}
	}
}

func runSyncEquivalence(t *testing.T, bs int, blocks uint64, inodes uint32, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(bs)))
	fd := storage.NewFaultDevice(storage.NewMemDevice(bs, blocks))
	fs, err := Format(fd, inodes)
	if err != nil {
		t.Fatal(err)
	}
	c := newEquivChecker(t, fs)
	maxBlock := int(numDirect + fs.ptrsPerBlock() + 8) // reaches the double-indirect tree
	buf := make([]byte, 6*bs)
	for op := 0; op < 600; op++ {
		name := fmt.Sprintf("f%02d", rng.IntN(24))
		label := fmt.Sprintf("op %d", op)
		switch r := rng.IntN(100); {
		case r < 20:
			c.fs.Create(name) // ErrExists and ErrNoSpace are part of the mix
		case r < 50:
			if f, err := c.fs.Open(name); err == nil {
				n := 1 + rng.IntN(len(buf))
				for i := range buf[:n] {
					buf[i] = byte(rng.Uint32())
				}
				f.WriteAt(buf[:n], int64(rng.IntN(maxBlock*bs)))
			}
		case r < 58:
			if f, err := c.fs.Open(name); err == nil {
				f.Truncate(int64(rng.IntN(int(f.Size()) + 1)))
			}
		case r < 70:
			c.fs.Remove(name)
		case r < 95:
			faulty := rng.IntN(3) == 0
			if faulty {
				if rng.IntN(2) == 0 {
					fd.FailWritesAfter(rng.IntN(8))
				} else {
					fd.FailSyncsAfter(rng.IntN(3))
				}
			}
			err := c.fs.Sync()
			fd.Disarm()
			if err != nil {
				if !faulty {
					t.Fatalf("%s: Sync: %v", label, err)
				}
				c.failed()
				continue
			}
			c.synced(label + " Sync")
		default:
			if err := c.fs.Sync(); err != nil {
				t.Fatalf("%s: Sync: %v", label, err)
			}
			c.synced(label + " Sync before Mount")
			want := c.fs.List()
			fs, err := Mount(fd)
			if err != nil {
				t.Fatalf("%s: Mount: %v", label, err)
			}
			if got := fs.List(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: remount lists %v, want %v", label, got, want)
			}
			if _, inodes := regions(t, fs); !bytes.Equal(inodes, fullInodes(fs)) {
				t.Fatalf("%s: remounted inode table does not re-marshal to itself", label)
			}
			c.reset(fs)
		}
	}
}

// syncTrace runs a fixed sequence of operations through the public API and
// returns the journal counters and a digest of the whole device image
// after every Sync. The expected values in TestSyncTraceIsStable were
// recorded from the full re-marshal implementation of Sync, so they pin
// the bytes dirty tracking writes — journal, descriptor, in-place
// metadata, directory and pointer blocks — to what it wrote.
func syncTrace(t testing.TB) (FSSnapshot, string) {
	dev := storage.NewMemDevice(512, 4096)
	fs, err := Format(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 11))
	h := sha256.New()
	buf := make([]byte, 8*512)
	for op := 0; op < 400; op++ {
		name := fmt.Sprintf("n%02d", rng.IntN(20))
		switch r := rng.IntN(10); {
		case r < 2:
			fs.Create(name)
		case r < 5:
			if f, err := fs.Open(name); err == nil {
				n := 1 + rng.IntN(len(buf))
				for i := range buf[:n] {
					buf[i] = byte(rng.Uint32())
				}
				f.WriteAt(buf[:n], int64(rng.IntN(100*512)))
			}
		case r < 6:
			if f, err := fs.Open(name); err == nil {
				f.Truncate(int64(rng.IntN(int(f.Size()) + 1)))
			}
		case r < 7:
			fs.Remove(name)
		default:
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			img, err := storage.ReadFull(dev, 0, dev.NumBlocks())
			if err != nil {
				t.Fatal(err)
			}
			h.Write(img)
		}
	}
	return fs.MetricsSnapshot(), hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSyncTraceIsStable pins the journal counters and device images of a
// fixed operation sequence.
func TestSyncTraceIsStable(t *testing.T) {
	sn, digest := syncTrace(t)
	got := fmt.Sprintf("syncs=%d data_only=%d commits=%d journal_blocks=%d digest=%s",
		sn.Syncs, sn.DataOnlySyncs, sn.JournalCommits, sn.JournalBlocks, digest)
	const want = "syncs=123 data_only=61 commits=62 journal_blocks=211 digest=2c0188a2ecfd203e"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// BenchmarkSyncCycle times one Create, 16 KiB write, Sync, Remove, Sync
// cycle on a 64 MiB device. Sync stages only what changed, so the cost
// must not grow with the inode count.
func BenchmarkSyncCycle(b *testing.B) {
	for _, inodes := range []uint32{512, 8192} {
		b.Run(fmt.Sprintf("inodes=%d", inodes), func(b *testing.B) {
			dev := storage.NewMemDevice(4096, 64<<20/4096)
			fs, err := Format(dev, inodes)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 16<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := fs.Create("cycle")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(data, 0); err != nil {
					b.Fatal(err)
				}
				if err := fs.Sync(); err != nil {
					b.Fatal(err)
				}
				if err := fs.Remove("cycle"); err != nil {
					b.Fatal(err)
				}
				if err := fs.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSyncAfterFailedApplyStagesReusedInode: a Sync whose journal is
// sealed but whose in-place application fails leaves the transaction to
// be replayed by the next Sync. An inode freed by that transaction and
// then reused with identical content must still be journaled by the next
// Sync: the replay rewrites the freed inode on disk, so diffing against
// the metadata as it was before the failed Sync would miss it, and the
// next mount would find a directory entry pointing at a free inode.
func TestSyncAfterFailedApplyStagesReusedInode(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewMemDevice(512, 1024))
	fs, err := Format(fd, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Inodes 2, 3 and 4; inode 4 sits in a different inode-table block
	// from the root inode, which every directory change rewrites.
	for _, name := range []string{"a", "b", "c"} {
		if _, err := fs.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("c"); err != nil {
		t.Fatal(err)
	}
	fd.FailSyncsAfter(2) // entries and descriptor land; the apply barrier fails
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync succeeded through an injected fault")
	}
	fd.Disarm()
	if _, err := fs.Create("d"); err != nil { // reuses inode 4, empty again
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	remounted, err := Mount(fd)
	if err != nil {
		t.Fatal(err)
	}
	if err := remounted.CheckIntegrity(); err != nil {
		t.Fatalf("after retry: %v", err)
	}
	if got := fmt.Sprint(remounted.List()); got != "[a b d]" {
		t.Fatalf("remounted files %s, want [a b d]", got)
	}
}
