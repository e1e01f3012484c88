// Package minifs is a small inode-based block file system used as the
// "Ext4" stand-in of the reproduction. MobiCeal's claim is file-system
// friendliness: because PDE lives in the block layer, any block file system
// mounts unmodified on a thin volume (paper Sec. I, IV). minifs plays that
// role — it knows nothing about PDE, issues ordinary block I/O with the
// spatial locality typical of extent-based file systems (footnote 3 of the
// paper), and is used by the dd- and Bonnie-style workloads.
//
// Layout: superblock | journal descriptor | journal data | block bitmap |
// inode table | data blocks. The root directory is inode 1 and holds a flat
// namespace, which is all the workloads need.
//
// Like its kernel counterpart in data=ordered mode, minifs commits its
// metadata transactionally: Sync shadow-pages dirty pointer blocks and the
// root directory into fresh blocks, stages the changed bitmap and inode
// blocks in the journal region, seals the transaction with a checksummed
// descriptor, and only then writes them in place (see persist.go). Mount
// replays a sealed journal, so a power cut at any point leaves the file
// system at exactly the previous or the new Sync — file data follows
// ordered-mode semantics (fresh file content is durable before the
// metadata that references it; in-place overwrites of existing file bytes
// are not atomic, as on ext4).
package minifs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"mobiceal/internal/storage"
)

// File system errors.
var (
	// ErrNotFormatted reports a device without a minifs superblock.
	ErrNotFormatted = errors.New("minifs: device not formatted")
	// ErrExists reports creation of a duplicate name.
	ErrExists = errors.New("minifs: file exists")
	// ErrNotFound reports a lookup miss.
	ErrNotFound = errors.New("minifs: file not found")
	// ErrNoSpace reports block or inode exhaustion.
	ErrNoSpace = errors.New("minifs: no space left on device")
	// ErrNameTooLong reports a file name over 255 bytes.
	ErrNameTooLong = errors.New("minifs: name too long")
	// ErrFileTooBig reports a write past the maximum mappable offset.
	ErrFileTooBig = errors.New("minifs: file too big")
	// ErrClosedFile reports I/O on a removed file.
	ErrClosedFile = errors.New("minifs: file removed")
)

const (
	magic        = 0x6d696e69_66730002
	inodeSize    = 128
	numDirect    = 10
	rootIno      = 1
	maxNameLen   = 255
	modeFree     = 0
	modeFile     = 1
	modeDir      = 2
	minBlockSize = 512
)

// le is the on-disk byte order of every integer field.
var le = binary.LittleEndian

type superblock struct {
	blockSize    int
	totalBlocks  uint64
	inodeCount   uint32
	jdescStart   uint64
	jdescBlocks  uint64
	jdataStart   uint64
	jdataBlocks  uint64
	bitmapStart  uint64
	bitmapBlocks uint64
	inodeStart   uint64
	inodeBlocks  uint64
	dataStart    uint64
}

type inode struct {
	mode      uint32
	size      uint64
	direct    [numDirect]uint64
	indirect  uint64
	dindirect uint64
}

// dirent is one root-directory entry.
type dirent struct {
	name string
	ino  uint32
}

// FS is a mounted minifs instance. It caches metadata in memory and
// persists it on Sync, like a real kernel file system with a dirty cache.
// FS is safe for concurrent use.
type FS struct {
	mu  sync.Mutex
	dev storage.Device
	sb  superblock
	// bitmap is the data-region block bitmap in its on-disk layout, the
	// whole bitmap region: bit i%8 of byte i/8 marks block dataStart+i
	// used. Bits past the last data block stay zero.
	bitmap []byte
	inodes []inode
	dir    []dirent // root directory, sorted by name
	cursor uint64   // first-fit allocation cursor (spatial locality)
	// inoHint is the lowest inode number that may be free: every inode
	// from rootIno+1 up to it is in use.
	inoHint uint32

	// Pointer (indirect) blocks are cached dirty in memory and flushed on
	// Sync, like a kernel FS buffer cache. Without this, every data-block
	// allocation would interleave a pointer-block write and destroy the
	// spatial locality the workloads depend on. freshPtr marks pointer
	// blocks allocated since the last commit: no committed metadata
	// references them, so Sync can write them in place, while a dirty
	// pointer block of committed metadata must be shadow-paged to a fresh
	// location first (persist.go).
	ptrCache map[uint64][]uint64
	ptrDirty map[uint64]bool
	freshPtr map[uint64]bool

	// Journal state (persist.go). gen is the journal transaction
	// generation. lastBitmap and lastInodes hold the metadata regions as
	// of the last commit, so only changed blocks are journaled; nil means
	// nothing is committed yet. pendingFree holds blocks freed since the
	// last committed Sync: they stay unallocatable until the commit
	// lands, because the last durable metadata generation may still
	// reference them and a crash must find their contents intact.
	gen         uint64
	lastBitmap  []byte
	lastInodes  []byte
	pendingFree map[uint64]bool
	// Dirty tracking: what changed since the last commit, so Sync stages
	// O(changed) blocks. dirtyInodes holds every inode mutated (Sync's
	// pointer-block relocation visits only these); dirtyItable the
	// inode-table blocks holding them; dirtyBitmap the bitmap blocks with
	// a flipped bit. The sets are consumed only at a commit point (the
	// sealed descriptor) or by a successful data-only flush, so a Sync
	// that fails before either re-stages them.
	dirtyInodes dirtySet
	dirtyItable dirtySet
	dirtyBitmap dirtySet
	// dirDirty marks the root directory as changed since the last commit,
	// so idle Syncs skip the directory rewrite and take the cheap
	// data-only flush path. replayPending marks a sealed journal whose
	// in-place application failed midway: the journal region must not be
	// reused until that transaction is re-applied, or a crash could
	// strand the half-applied state with no valid journal to repair it.
	dirDirty      bool
	replayPending bool

	// m is the file system's obs-backed telemetry (metrics.go);
	// memory-only, zero value ready.
	m FSMetrics
}

// layoutFor computes the region split for inodeCount inodes on a device of
// total blocks. Only the bitmap and inode regions are ever journaled
// (pointer blocks and the root directory are shadow-paged into fresh
// blocks), so the journal data region sized to hold both in full makes a
// Sync's worst-case transaction fit in one journal pass by construction.
func layoutFor(total uint64, bs int, inodeCount uint32) superblock {
	inodeBlocks := (uint64(inodeCount)*inodeSize + uint64(bs) - 1) / uint64(bs)
	// One bitmap bit per block; sized over the whole device for simplicity.
	bitmapBlocks := (total/8 + uint64(bs) - 1) / uint64(bs)
	jdataBlocks := bitmapBlocks + inodeBlocks
	jdescBlocks := (jdescHeaderLen + 8*jdataBlocks + uint64(bs) - 1) / uint64(bs)
	sb := superblock{
		blockSize:   bs,
		totalBlocks: total,
		inodeCount:  inodeCount,
		jdescStart:  1,
		jdescBlocks: jdescBlocks,
	}
	sb.jdataStart = sb.jdescStart + jdescBlocks
	sb.jdataBlocks = jdataBlocks
	sb.bitmapStart = sb.jdataStart + jdataBlocks
	sb.bitmapBlocks = bitmapBlocks
	sb.inodeStart = sb.bitmapStart + bitmapBlocks
	sb.inodeBlocks = inodeBlocks
	sb.dataStart = sb.inodeStart + inodeBlocks
	return sb
}

// Format writes a fresh empty file system with capacity for inodeCount
// files onto dev and returns it mounted. inodeCount is a cap: on devices
// too small to carry the inode table and its journal alongside useful data
// space, it is scaled down until the layout fits.
func Format(dev storage.Device, inodeCount uint32) (*FS, error) {
	bs := dev.BlockSize()
	if bs < minBlockSize {
		return nil, fmt.Errorf("minifs: block size %d too small", bs)
	}
	if inodeCount < 2 {
		inodeCount = 2
	}
	total := dev.NumBlocks()
	sb := layoutFor(total, bs, inodeCount)
	for sb.dataStart+8 > total && inodeCount > 2 {
		inodeCount /= 2
		sb = layoutFor(total, bs, inodeCount)
	}
	if sb.dataStart+8 > total {
		return nil, fmt.Errorf("minifs: device too small (%d blocks)", total)
	}
	fs := &FS{
		dev:    dev,
		sb:     sb,
		bitmap: make([]byte, sb.bitmapBlocks*uint64(bs)),
		inodes: make([]inode, inodeCount),
	}
	fs.resetState()
	fs.inodes[rootIno].mode = modeDir
	fs.dirDirty = true
	// Nothing is committed yet (lastBitmap and lastInodes are nil): the
	// first Sync stages every metadata block.
	for b := range sb.bitmapBlocks {
		fs.dirtyBitmap.add(b)
	}
	for b := range sb.inodeBlocks {
		fs.dirtyItable.add(b)
	}
	if err := fs.writeSuper(); err != nil {
		return nil, fmt.Errorf("minifs: writing superblock: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return nil, fmt.Errorf("minifs: writing fresh metadata: %w", err)
	}
	return fs, nil
}

// Mount loads an existing file system from dev.
func Mount(dev storage.Device) (*FS, error) {
	fs := &FS{dev: dev}
	if err := fs.load(); err != nil {
		return nil, err
	}
	return fs, nil
}

// resetState initializes the in-memory caches, dirty sets and allocation
// hints of a freshly formatted or loaded file system.
func (fs *FS) resetState() {
	fs.inoHint = rootIno + 1
	fs.ptrCache = make(map[uint64][]uint64)
	fs.ptrDirty = make(map[uint64]bool)
	fs.freshPtr = make(map[uint64]bool)
	fs.pendingFree = make(map[uint64]bool)
	fs.dirtyInodes = newDirtySet(uint64(fs.sb.inodeCount))
	fs.dirtyItable = newDirtySet(fs.sb.inodeBlocks)
	fs.dirtyBitmap = newDirtySet(fs.sb.bitmapBlocks)
}

// dirtySet is a set of small integers — inode numbers or region block
// indexes — changed since the last commit, each listed once.
type dirtySet struct {
	in   []bool
	list []uint64
}

func newDirtySet(n uint64) dirtySet { return dirtySet{in: make([]bool, n)} }

// add inserts i and reports whether it was new.
func (s *dirtySet) add(i uint64) bool {
	if s.in[i] {
		return false
	}
	s.in[i] = true
	s.list = append(s.list, i)
	return true
}

// sorted returns the members in ascending order.
func (s *dirtySet) sorted() []uint64 {
	slices.Sort(s.list)
	return s.list
}

// clear empties the set.
func (s *dirtySet) clear() {
	for _, i := range s.list {
		s.in[i] = false
	}
	s.list = s.list[:0]
}

// touch records a mutation of inode ino: Sync re-marshals the inode-table
// blocks holding it and relocates its dirty pointer blocks. Caller holds
// fs.mu.
func (fs *FS) touch(ino uint32) {
	if !fs.dirtyInodes.add(uint64(ino)) {
		return
	}
	bs := uint64(fs.sb.blockSize)
	lo := uint64(ino) * inodeSize
	for b := lo / bs; b <= (lo+inodeSize-1)/bs; b++ {
		fs.dirtyItable.add(b)
	}
}

// used reports whether data block i (relative to dataStart) is allocated.
func (fs *FS) used(i uint64) bool { return fs.bitmap[i/8]&(1<<(i%8)) != 0 }

// setUsed sets data block i's bitmap bit and records its bitmap block as
// dirty.
func (fs *FS) setUsed(i uint64, used bool) {
	if used {
		fs.bitmap[i/8] |= 1 << (i % 8)
	} else {
		fs.bitmap[i/8] &^= 1 << (i % 8)
	}
	fs.dirtyBitmap.add(i / 8 / uint64(fs.sb.blockSize))
}

// usedBlocks counts the allocated data blocks.
func (fs *FS) usedBlocks() uint64 {
	var n int
	for _, b := range fs.bitmap {
		n += bits.OnesCount8(b)
	}
	return uint64(n)
}

// lookup binary-searches the sorted directory for name, returning its
// index (or insertion point) and whether it is present.
func (fs *FS) lookup(name string) (int, bool) {
	return slices.BinarySearchFunc(fs.dir, name, func(e dirent, name string) int {
		return strings.Compare(e.name, name)
	})
}

// BlockSize returns the file system block size.
func (fs *FS) BlockSize() int { return fs.sb.blockSize }

// FreeBlocks returns the number of free data blocks.
func (fs *FS) FreeBlocks() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sb.totalBlocks - fs.sb.dataStart - fs.usedBlocks()
}

// List returns the sorted names in the root directory.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, len(fs.dir))
	for i, e := range fs.dir {
		names[i] = e.name
	}
	return names
}

// Create makes a new empty file. It fails with ErrExists if name is taken.
func (fs *FS) Create(name string) (*File, error) {
	if len(name) == 0 || len(name) > maxNameLen {
		return nil, ErrNameTooLong
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	at, ok := fs.lookup(name)
	if ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Lowest free inode, scanning up from the hint.
	for fs.inoHint < fs.sb.inodeCount && fs.inodes[fs.inoHint].mode != modeFree {
		fs.inoHint++
	}
	if fs.inoHint == fs.sb.inodeCount {
		return nil, fmt.Errorf("%w: out of inodes", ErrNoSpace)
	}
	ino := fs.inoHint
	fs.inoHint++
	fs.inodes[ino] = inode{mode: modeFile}
	fs.touch(ino)
	fs.dir = slices.Insert(fs.dir, at, dirent{name: name, ino: ino})
	fs.dirDirty = true
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	at, ok := fs.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{fs: fs, ino: fs.dir[at].ino, name: name}, nil
}

// Remove deletes a file and frees its blocks.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	at, ok := fs.lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ino := fs.dir[at].ino
	fs.touch(ino)
	if err := fs.freeInodeBlocks(&fs.inodes[ino]); err != nil {
		return err
	}
	fs.inodes[ino] = inode{}
	fs.inoHint = min(fs.inoHint, ino)
	fs.dir = slices.Delete(fs.dir, at, at+1)
	fs.dirDirty = true
	return nil
}

// CheckIntegrity verifies fsck-style invariants and returns the first
// violation: every live inode's blocks are marked used, no block belongs to
// two files, directory entries reference live file inodes, and no used
// block is unreachable.
func (fs *FS) CheckIntegrity() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	owner := map[uint64]uint32{}
	claim := func(abs uint64, ino uint32) error {
		if abs == 0 {
			return nil
		}
		if prev, dup := owner[abs]; dup {
			return fmt.Errorf("minifs: block %d owned by inodes %d and %d", abs, prev, ino)
		}
		owner[abs] = ino
		if abs < fs.sb.dataStart || abs >= fs.sb.totalBlocks {
			return fmt.Errorf("minifs: inode %d references out-of-range block %d", ino, abs)
		}
		if !fs.used(abs - fs.sb.dataStart) {
			return fmt.Errorf("minifs: inode %d references free block %d", ino, abs)
		}
		return nil
	}
	walk := func(ino uint32, ind *inode) error {
		for _, abs := range ind.direct {
			if err := claim(abs, ino); err != nil {
				return err
			}
		}
		for _, ptr := range []uint64{ind.indirect, ind.dindirect} {
			if ptr == 0 {
				continue
			}
			if err := claim(ptr, ino); err != nil {
				return err
			}
			ptrs, err := fs.readPtrBlock(ptr)
			if err != nil {
				return err
			}
			for _, abs := range ptrs {
				if abs == 0 {
					continue
				}
				if ptr == ind.dindirect {
					// Second level: abs is itself a pointer block.
					if err := claim(abs, ino); err != nil {
						return err
					}
					inner, err := fs.readPtrBlock(abs)
					if err != nil {
						return err
					}
					for _, leaf := range inner {
						if err := claim(leaf, ino); err != nil {
							return err
						}
					}
				} else if err := claim(abs, ino); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range fs.inodes {
		ind := &fs.inodes[i]
		if ind.mode == modeFree {
			continue
		}
		if err := walk(uint32(i), ind); err != nil {
			return err
		}
	}
	// Names and file inodes correspond one to one: a second name would
	// free the inode under the first on Remove, and an unnamed file
	// inode holds blocks nothing can reach.
	named := make([]bool, len(fs.inodes))
	for _, e := range fs.dir {
		if int(e.ino) >= len(fs.inodes) || fs.inodes[e.ino].mode != modeFile {
			return fmt.Errorf("minifs: directory entry %q references bad inode %d", e.name, e.ino)
		}
		if named[e.ino] {
			return fmt.Errorf("minifs: directory entry %q reuses inode %d", e.name, e.ino)
		}
		named[e.ino] = true
	}
	for i := range fs.inodes {
		if fs.inodes[i].mode == modeFile && !named[i] {
			return fmt.Errorf("minifs: file inode %d has no directory entry", i)
		}
	}
	if used := fs.usedBlocks(); used != uint64(len(owner)) {
		return fmt.Errorf("minifs: %d blocks marked used but %d reachable (leak)", used, len(owner))
	}
	return nil
}

// allocBlock returns a free data block (absolute index), first-fit from the
// roving cursor — sequential-ish placement like an extent allocator. Blocks
// freed since the last committed Sync are skipped: the last durable
// metadata generation may still reference them, and reusing one before the
// next commit would let a crash expose a half-overwritten block through
// committed pointers.
func (fs *FS) allocBlock() (uint64, error) {
	n := fs.sb.totalBlocks - fs.sb.dataStart
	for off := uint64(0); off < n; off++ {
		i := (fs.cursor + off) % n
		if !fs.used(i) && !fs.pendingFree[fs.sb.dataStart+i] {
			fs.setUsed(i, true)
			fs.cursor = i + 1
			return fs.sb.dataStart + i, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) freeBlock(abs uint64) {
	if abs >= fs.sb.dataStart && abs < fs.sb.totalBlocks {
		fs.setUsed(abs-fs.sb.dataStart, false)
		fs.pendingFree[abs] = true
	}
	delete(fs.ptrCache, abs)
	delete(fs.ptrDirty, abs)
	delete(fs.freshPtr, abs)
}

// allocPtrBlock allocates a block for pointer metadata, installs content in
// the buffer cache and marks it fresh: it is unreferenced by any committed
// metadata, so Sync may write it in place.
func (fs *FS) allocPtrBlock(ptrs []uint64) (uint64, error) {
	abs, err := fs.allocBlock()
	if err != nil {
		return 0, err
	}
	if err := fs.writePtrBlock(abs, ptrs); err != nil {
		return 0, err
	}
	fs.freshPtr[abs] = true
	return abs, nil
}

// ptrsPerBlock returns how many 8-byte block pointers one block holds.
func (fs *FS) ptrsPerBlock() uint64 { return uint64(fs.sb.blockSize / 8) }

// maxFileBlocks returns the largest mappable file size in blocks.
func (fs *FS) maxFileBlocks() uint64 {
	p := fs.ptrsPerBlock()
	return numDirect + p + p*p
}

// readPtrBlock returns a pointer block's entries, from the buffer cache
// when present.
func (fs *FS) readPtrBlock(abs uint64) ([]uint64, error) {
	if ptrs, ok := fs.ptrCache[abs]; ok {
		return ptrs, nil
	}
	buf := make([]byte, fs.sb.blockSize)
	if err := storage.ReadBlocks(fs.dev, abs, buf); err != nil {
		return nil, err
	}
	ptrs := make([]uint64, fs.ptrsPerBlock())
	for i := range ptrs {
		ptrs[i] = le.Uint64(buf[i*8:])
	}
	fs.ptrCache[abs] = ptrs
	return ptrs, nil
}

// writePtrBlock updates a pointer block in the buffer cache; the dirty
// block reaches the device at the next Sync.
func (fs *FS) writePtrBlock(abs uint64, ptrs []uint64) error {
	fs.ptrCache[abs] = ptrs
	fs.ptrDirty[abs] = true
	return nil
}

// flushPtrBlocks writes all dirty pointer blocks to the device. The caller
// (Sync) has already shadow-paged every dirty pointer block of committed
// metadata to a fresh location, so these writes never overwrite a block the
// last durable transaction still references. Caller holds fs.mu.
func (fs *FS) flushPtrBlocks() error {
	buf := make([]byte, fs.sb.blockSize)
	for abs := range fs.ptrDirty {
		ptrs := fs.ptrCache[abs]
		for i := range buf {
			buf[i] = 0
		}
		for i, p := range ptrs {
			le.PutUint64(buf[i*8:], p)
		}
		if err := storage.WriteBlocks(fs.dev, abs, buf); err != nil {
			return err
		}
	}
	fs.ptrDirty = make(map[uint64]bool)
	return nil
}

// blockFor maps a file-relative block number to an absolute device block,
// allocating missing levels when alloc is true. Returns 0 when the block is
// a hole and alloc is false. The second result reports whether the data
// block was freshly allocated by this call — callers that fail before
// writing it must unwind the mapping, or a former hole would read back
// stale device content instead of zeros.
func (fs *FS) blockFor(ind *inode, fileBlock uint64, alloc bool) (uint64, bool, error) {
	if fileBlock >= fs.maxFileBlocks() {
		return 0, false, ErrFileTooBig
	}
	p := fs.ptrsPerBlock()
	switch {
	case fileBlock < numDirect:
		if ind.direct[fileBlock] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			ind.direct[fileBlock] = abs
			return abs, true, nil
		}
		return ind.direct[fileBlock], false, nil

	case fileBlock < numDirect+p:
		slot := fileBlock - numDirect
		if ind.indirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			ind.indirect = abs
		}
		ptrs, err := fs.readPtrBlock(ind.indirect)
		if err != nil {
			return 0, false, err
		}
		if ptrs[slot] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			ptrs[slot] = abs
			if err := fs.writePtrBlock(ind.indirect, ptrs); err != nil {
				return 0, false, err
			}
			return abs, true, nil
		}
		return ptrs[slot], false, nil

	default:
		rel := fileBlock - numDirect - p
		outerSlot, innerSlot := rel/p, rel%p
		if ind.dindirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			ind.dindirect = abs
		}
		outer, err := fs.readPtrBlock(ind.dindirect)
		if err != nil {
			return 0, false, err
		}
		if outer[outerSlot] == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			outer[outerSlot] = abs
			if err := fs.writePtrBlock(ind.dindirect, outer); err != nil {
				return 0, false, err
			}
		}
		inner, err := fs.readPtrBlock(outer[outerSlot])
		if err != nil {
			return 0, false, err
		}
		if inner[innerSlot] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			inner[innerSlot] = abs
			if err := fs.writePtrBlock(outer[outerSlot], inner); err != nil {
				return 0, false, err
			}
			return abs, true, nil
		}
		return inner[innerSlot], false, nil
	}
}

// freeInodeBlocks releases every block reachable from ind.
func (fs *FS) freeInodeBlocks(ind *inode) error {
	for _, abs := range ind.direct {
		if abs != 0 {
			fs.freeBlock(abs)
		}
	}
	if ind.indirect != 0 {
		ptrs, err := fs.readPtrBlock(ind.indirect)
		if err != nil {
			return err
		}
		for _, abs := range ptrs {
			if abs != 0 {
				fs.freeBlock(abs)
			}
		}
		fs.freeBlock(ind.indirect)
	}
	if ind.dindirect != 0 {
		outer, err := fs.readPtrBlock(ind.dindirect)
		if err != nil {
			return err
		}
		for _, o := range outer {
			if o == 0 {
				continue
			}
			inner, err := fs.readPtrBlock(o)
			if err != nil {
				return err
			}
			for _, abs := range inner {
				if abs != 0 {
					fs.freeBlock(abs)
				}
			}
			fs.freeBlock(o)
		}
		fs.freeBlock(ind.dindirect)
	}
	return nil
}
