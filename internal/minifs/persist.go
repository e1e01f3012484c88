package minifs

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math"
	"time"

	"mobiceal/internal/storage"
)

// Metadata journaling (the ext4/jbd2 analogue, data=ordered).
//
// Sync stages every changed bitmap and inode block as (address, content)
// entries in the journal data region — found through the dirty sets, so
// the cost is O(changed), not O(file system size) — syncs (which also
// flushes all pending file data: ordered mode), then seals the transaction
// by writing the journal descriptor: generation, entry count, entry
// addresses, and a CRC64 over all of it including the entry contents. Only
// after the descriptor is durable are the blocks written in place.
//
// The descriptor write is the atomic commit point. Mount validates the
// descriptor against the journal contents: a valid journal is replayed
// (idempotently) before the in-place metadata is read, so a crash during
// the in-place phase recovers forward to the new Sync; an invalid or stale
// descriptor means the in-place metadata is exactly the previous fully
// applied Sync, so a crash before or during the journal write rolls back.
//
// Pointer blocks and the root directory's data blocks are never journaled:
// Sync shadow-pages them — dirty pointer blocks of committed metadata are
// relocated to freshly allocated blocks (with the parent reference updated
// through the journaled inode table) and the directory is rewritten into
// fresh blocks, none reusable before the commit lands (pendingFree). The
// journal region therefore only ever has to hold the bitmap and inode
// regions, which it is sized for: every Sync commits as exactly one
// transaction.

// jdescHeaderLen is the fixed journal-descriptor prefix: generation u64 |
// entry count u64 | checksum u64; entry addresses follow.
const jdescHeaderLen = 8 + 8 + 8

// crcTable drives the journal descriptor checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// marshalInodeBlock serializes inode-table block b into dst, one block
// long. An inode may straddle a block boundary when the block size is not
// a multiple of inodeSize; each block holds its share of the bytes.
func (fs *FS) marshalInodeBlock(b uint64, dst []byte) {
	bs := uint64(len(dst))
	lo := b * bs
	clear(dst)
	var slot [inodeSize]byte
	for i := lo / inodeSize; i < uint64(len(fs.inodes)) && i*inodeSize < lo+bs; i++ {
		marshalInode(&fs.inodes[i], slot[:])
		if at := int64(i*inodeSize) - int64(lo); at < 0 {
			copy(dst, slot[-at:])
		} else {
			copy(dst[at:], slot[:])
		}
	}
}

// relocateDirtyPtrs shadow-pages every dirty pointer block that committed
// metadata may still reference: its content moves to a freshly allocated
// block, the parent reference — an inode field or an outer pointer block —
// is updated, and the old block is freed but stays reserved until the
// commit lands. Pointer blocks allocated since the last Sync are already
// unreferenced by durable metadata and stay in place. Only inodes touched
// since the last commit can own a dirty pointer block; they are visited in
// inode order, so relocation allocates the same blocks a walk over the
// whole table would. Caller holds fs.mu.
func (fs *FS) relocateDirtyPtrs() error {
	needsMove := func(abs uint64) bool {
		return abs != 0 && fs.ptrDirty[abs] && !fs.freshPtr[abs]
	}
	relocate := func(old uint64) (uint64, error) {
		ptrs := fs.ptrCache[old] // dirty blocks are always cached
		// Allocate before freeing: if allocation fails (device full) the
		// old block must keep its cached dirty content, or the pointer
		// update would be silently lost and the inode left referencing a
		// block marked free. The old block being still allocated also
		// guarantees the replacement is a different block.
		abs, err := fs.allocPtrBlock(ptrs)
		if err != nil {
			return 0, err
		}
		fs.freeBlock(old)
		return abs, nil
	}
	for _, i := range fs.dirtyInodes.sorted() {
		ind := &fs.inodes[i]
		if ind.mode == modeFree {
			continue
		}
		if needsMove(ind.indirect) {
			abs, err := relocate(ind.indirect)
			if err != nil {
				return err
			}
			ind.indirect = abs
		}
		if ind.dindirect != 0 {
			outer, err := fs.readPtrBlock(ind.dindirect)
			if err != nil {
				return err
			}
			changed := false
			for s, inner := range outer {
				if needsMove(inner) {
					abs, err := relocate(inner)
					if err != nil {
						return err
					}
					outer[s] = abs
					changed = true
				}
			}
			if changed {
				if err := fs.writePtrBlock(ind.dindirect, outer); err != nil {
					return err
				}
			}
			if needsMove(ind.dindirect) {
				abs, err := relocate(ind.dindirect)
				if err != nil {
					return err
				}
				ind.dindirect = abs
			}
		}
	}
	return nil
}

// Sync persists all metadata through the journal: the root directory is
// rewritten into fresh data blocks (as inode 1's data), dirty pointer
// blocks are shadow-paged, and the changed bitmap and inode blocks commit
// as one journal transaction before landing in place. Data blocks are
// written through at WriteAt time, so Sync is a metadata flush with
// ordered-data semantics, matching how a kernel FS commits its dirty
// caches.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.m.Syncs.Inc()
	defer fs.m.SyncLat.Since(time.Now())

	// 0. A sealed transaction whose in-place application failed must be
	//    re-applied before the journal region is reused: overwriting its
	//    entries first would leave the half-applied state unrepairable if
	//    power failed before the next seal.
	if fs.replayPending {
		if err := fs.replayJournal(); err != nil {
			return err
		}
		fs.replayPending = false
	}

	// 1. Serialize the directory into the root inode when it changed. This
	//    allocates fresh blocks (so it must precede the bitmap marshal)
	//    and writes them directly: they are invisible until the inode
	//    table commits.
	if fs.dirDirty {
		fs.touch(rootIno)
		dirBytes := fs.marshalDir()
		if err := fs.writeInodeData(&fs.inodes[rootIno], dirBytes); err != nil {
			return fmt.Errorf("minifs: writing root directory: %w", err)
		}
	}

	// 2. Shadow-page committed dirty pointer blocks, then write every
	//    dirty pointer block out — all of them now sit on fresh blocks no
	//    durable metadata references.
	if err := fs.relocateDirtyPtrs(); err != nil {
		return fmt.Errorf("minifs: relocating pointer blocks: %w", err)
	}
	if err := fs.flushPtrBlocks(); err != nil {
		return fmt.Errorf("minifs: flushing pointer blocks: %w", err)
	}

	// 3. Stage the dirty bitmap and inode blocks that differ from their
	//    last committed copy. Bitmap blocks precede inode blocks on disk,
	//    so the entries come out in address order, which lets in-place
	//    application coalesce them into vectored runs.
	bs := fs.sb.blockSize
	bblks, iblks := fs.dirtyBitmap.sorted(), fs.dirtyItable.sorted()
	entries := make([]byte, (len(bblks)+len(iblks))*bs)
	addrs := make([]uint64, 0, len(bblks)+len(iblks))
	stage := func(abs uint64, blk, last []byte) {
		if last == nil || !bytes.Equal(blk, last) {
			addrs = append(addrs, abs)
		}
	}
	for _, b := range bblks {
		blk := entries[len(addrs)*bs:][:bs]
		copy(blk, fs.bitmap[b*uint64(bs):])
		stage(fs.sb.bitmapStart+b, blk, region(fs.lastBitmap, b, bs))
	}
	for _, b := range iblks {
		blk := entries[len(addrs)*bs:][:bs]
		fs.marshalInodeBlock(b, blk)
		stage(fs.sb.inodeStart+b, blk, region(fs.lastInodes, b, bs))
	}
	entries = entries[:len(addrs)*bs]

	if len(addrs) == 0 {
		// No metadata changed; just give pending file data durability.
		fs.m.DataOnlySyncs.Inc()
		if err := fs.dev.Sync(0); err != nil {
			return err
		}
		fs.clearDirty()
		return nil
	}
	if uint64(len(addrs)) > fs.sb.jdataBlocks {
		// Impossible by construction: the journal holds both regions whole.
		return fmt.Errorf("minifs: transaction of %d blocks exceeds journal (%d)",
			len(addrs), fs.sb.jdataBlocks)
	}

	// 4. Commit.
	return fs.commitTxn(addrs, entries)
}

// committed adopts a sealed transaction as the durable metadata: the
// committed region copies are patched with its entries, and everything
// tracked since the previous commit — dirty sets, blocks held back from
// reuse, pointer blocks new to this transaction, the directory rewrite —
// is consumed. It runs at the commit point, before in-place application:
// from then on Mount, or the next Sync if application fails, replays the
// transaction, so later Syncs must treat its state as the committed one.
// Adopted only after a successful application instead, a Sync following a
// failed one would diff against stale copies, missing a block that changed
// back to its old content while the replay rewrote it, and would overwrite
// in place pointer blocks the sealed metadata already references.
func (fs *FS) committed(addrs []uint64, entries []byte) {
	fs.m.JournalCommits.Inc()
	fs.m.JournalBlocks.Add(uint64(len(addrs)))
	bs := uint64(fs.sb.blockSize)
	if fs.lastBitmap == nil {
		fs.lastBitmap = make([]byte, fs.sb.bitmapBlocks*bs)
		fs.lastInodes = make([]byte, fs.sb.inodeBlocks*bs)
	}
	for i, abs := range addrs {
		blk := entries[uint64(i)*bs : uint64(i+1)*bs]
		if abs < fs.sb.inodeStart {
			copy(fs.lastBitmap[(abs-fs.sb.bitmapStart)*bs:], blk)
		} else {
			copy(fs.lastInodes[(abs-fs.sb.inodeStart)*bs:], blk)
		}
	}
	fs.clearDirty()
	fs.pendingFree = make(map[uint64]bool)
	fs.freshPtr = make(map[uint64]bool)
	fs.dirDirty = false
}

// region returns block b of a committed region copy, or nil when nothing
// is committed yet.
func region(last []byte, b uint64, bs int) []byte {
	if last == nil {
		return nil
	}
	return last[b*uint64(bs) : (b+1)*uint64(bs)]
}

// clearDirty consumes the dirty sets once their blocks are durable.
func (fs *FS) clearDirty() {
	fs.dirtyInodes.clear()
	fs.dirtyItable.clear()
	fs.dirtyBitmap.clear()
}

// commitTxn runs one journal transaction: entries into the journal region,
// barrier, sealed descriptor, barrier, in-place application, barrier.
// entries holds one block per address, addresses ascending.
func (fs *FS) commitTxn(addrs []uint64, entries []byte) error {
	bs := fs.sb.blockSize

	if err := storage.WriteBlocks(fs.dev, fs.sb.jdataStart, entries); err != nil {
		return fmt.Errorf("minifs: writing journal entries: %w", err)
	}
	// Barrier: entries — and, in ordered-mode fashion, all pending file
	// data — are durable before the descriptor can commit the transaction.
	if err := fs.dev.Sync(0); err != nil {
		return fmt.Errorf("minifs: syncing journal entries: %w", err)
	}

	// Sealed descriptor: the atomic commit point.
	desc := make([]byte, int((jdescHeaderLen+8*uint64(len(addrs))+uint64(bs)-1)/uint64(bs))*bs)
	le.PutUint64(desc[0:], fs.gen+1)
	le.PutUint64(desc[8:], uint64(len(addrs)))
	for i, abs := range addrs {
		le.PutUint64(desc[jdescHeaderLen+8*i:], abs)
	}
	le.PutUint64(desc[16:], journalChecksum(desc, entries, len(addrs)))
	if err := storage.WriteBlocks(fs.dev, fs.sb.jdescStart, desc); err != nil {
		return fmt.Errorf("minifs: writing journal descriptor: %w", err)
	}
	if err := fs.dev.Sync(0); err != nil {
		return fmt.Errorf("minifs: syncing journal descriptor: %w", err)
	}

	// The transaction is committed: Mount, or the next Sync if in-place
	// application fails below, replays it.
	fs.committed(addrs, entries)

	// In-place application, coalescing adjacent addresses into one write.
	// From here the descriptor is durable: if application fails midway,
	// the sealed journal is the only repair path and must be re-applied
	// before the region is reused (replayPending).
	pos := 0
	err := storage.ForEachRun(addrs, func(start uint64, count int) error {
		werr := storage.WriteBlocks(fs.dev, start, entries[pos*bs:(pos+count)*bs])
		pos += count
		return werr
	})
	if err != nil {
		fs.replayPending = true
		return fmt.Errorf("minifs: applying journal: %w", err)
	}
	if err := fs.dev.Sync(0); err != nil {
		fs.replayPending = true
		return fmt.Errorf("minifs: syncing applied metadata: %w", err)
	}
	fs.gen++
	return nil
}

// journalChecksum computes the descriptor seal: CRC64 over the generation
// and count fields, the address table, and the entry contents. The checksum
// field itself (desc[16:24]) is excluded.
func journalChecksum(desc, entries []byte, count int) uint64 {
	h := crc64.New(crcTable)
	h.Write(desc[0:16])
	h.Write(desc[jdescHeaderLen : jdescHeaderLen+8*count])
	h.Write(entries)
	return h.Sum64()
}

// replayJournal validates the journal descriptor against the journal
// contents and, when the seal holds, applies the entries in place — the
// mount-time recovery pass. An unsealed or torn journal is ignored: the
// in-place metadata is then exactly the last fully applied transaction.
func (fs *FS) replayJournal() error {
	bs := fs.sb.blockSize
	descRaw, err := storage.ReadFull(fs.dev, fs.sb.jdescStart, fs.sb.jdescBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading journal descriptor: %w", err)
	}
	gen := le.Uint64(descRaw[0:])
	count := le.Uint64(descRaw[8:])
	if count == 0 || count > fs.sb.jdataBlocks ||
		jdescHeaderLen+8*count > uint64(len(descRaw)) {
		return nil // no (or no plausible) sealed transaction
	}
	entries, err := storage.ReadFull(fs.dev, fs.sb.jdataStart, count)
	if err != nil {
		return fmt.Errorf("minifs: reading journal entries: %w", err)
	}
	if journalChecksum(descRaw, entries, int(count)) != le.Uint64(descRaw[16:]) {
		return nil // torn or stale journal: the in-place state stands
	}
	fs.gen = gen
	for i := uint64(0); i < count; i++ {
		abs := le.Uint64(descRaw[jdescHeaderLen+8*i:])
		// Only the bitmap and inode regions are ever journaled; an entry
		// addressing anything else — the superblock, the journal itself,
		// or file data — is corruption and must not be replayed.
		if abs < fs.sb.bitmapStart || abs >= fs.sb.dataStart {
			return fmt.Errorf("%w: journal entry targets block %d", ErrNotFormatted, abs)
		}
		if err := storage.WriteBlocks(fs.dev, abs, entries[i*uint64(bs):(i+1)*uint64(bs)]); err != nil {
			return fmt.Errorf("minifs: replaying journal: %w", err)
		}
	}
	if err := fs.dev.Sync(0); err != nil {
		return fmt.Errorf("minifs: syncing journal replay: %w", err)
	}
	return nil
}

// writeSuper writes the superblock. It is written exactly once, at Format:
// every field is geometry, fixed for the life of the file system, so mounts
// never depend on a block that could be mid-rewrite at a power cut.
func (fs *FS) writeSuper() error {
	buf := make([]byte, fs.sb.blockSize)
	le.PutUint64(buf[0:], magic)
	le.PutUint64(buf[8:], uint64(fs.sb.blockSize))
	le.PutUint64(buf[16:], fs.sb.totalBlocks)
	le.PutUint64(buf[24:], uint64(fs.sb.inodeCount))
	le.PutUint64(buf[32:], fs.sb.jdescStart)
	le.PutUint64(buf[40:], fs.sb.jdescBlocks)
	le.PutUint64(buf[48:], fs.sb.jdataStart)
	le.PutUint64(buf[56:], fs.sb.jdataBlocks)
	le.PutUint64(buf[64:], fs.sb.bitmapStart)
	le.PutUint64(buf[72:], fs.sb.bitmapBlocks)
	le.PutUint64(buf[80:], fs.sb.inodeStart)
	le.PutUint64(buf[88:], fs.sb.inodeBlocks)
	le.PutUint64(buf[96:], fs.sb.dataStart)
	return storage.WriteBlocks(fs.dev, 0, buf)
}

// load mounts the file system from the device, replaying a sealed journal
// first.
func (fs *FS) load() error {
	bs := fs.dev.BlockSize()
	buf := make([]byte, bs)
	if err := storage.ReadBlocks(fs.dev, 0, buf); err != nil {
		return fmt.Errorf("minifs: reading superblock: %w", err)
	}
	if le.Uint64(buf) != magic {
		return ErrNotFormatted
	}
	inodeCount := le.Uint64(buf[24:])
	if inodeCount <= rootIno || inodeCount > math.MaxUint32 {
		return fmt.Errorf("%w: inode count %d", ErrNotFormatted, inodeCount)
	}
	fs.sb = superblock{
		blockSize:    int(le.Uint64(buf[8:])),
		totalBlocks:  le.Uint64(buf[16:]),
		inodeCount:   uint32(inodeCount),
		jdescStart:   le.Uint64(buf[32:]),
		jdescBlocks:  le.Uint64(buf[40:]),
		jdataStart:   le.Uint64(buf[48:]),
		jdataBlocks:  le.Uint64(buf[56:]),
		bitmapStart:  le.Uint64(buf[64:]),
		bitmapBlocks: le.Uint64(buf[72:]),
		inodeStart:   le.Uint64(buf[80:]),
		inodeBlocks:  le.Uint64(buf[88:]),
		dataStart:    le.Uint64(buf[96:]),
	}
	if fs.sb.blockSize != bs {
		return fmt.Errorf("%w: block size %d != device %d", ErrNotFormatted, fs.sb.blockSize, bs)
	}
	if fs.sb.totalBlocks != fs.dev.NumBlocks() {
		return fmt.Errorf("%w: size mismatch", ErrNotFormatted)
	}
	if err := fs.sb.validate(); err != nil {
		return err
	}

	if err := fs.replayJournal(); err != nil {
		return err
	}

	bitmapBytes, err := storage.ReadFull(fs.dev, fs.sb.bitmapStart, fs.sb.bitmapBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading bitmap: %w", err)
	}
	inodeBytes, err := storage.ReadFull(fs.dev, fs.sb.inodeStart, fs.sb.inodeBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading inode table: %w", err)
	}
	fs.inodes = make([]inode, fs.sb.inodeCount)
	for i := range fs.inodes {
		unmarshalInode(&fs.inodes[i], inodeBytes[i*inodeSize:])
	}
	fs.bitmap = bytes.Clone(bitmapBytes)
	fs.lastBitmap = bitmapBytes
	fs.lastInodes = inodeBytes
	fs.resetState()

	// Normalize: bitmap bits past the last data block are cleared, and
	// inode-table bytes that decode lossily (high mode bits, slot padding,
	// space past the last inode) re-marshal differently. Blocks where the
	// in-memory state would not reproduce the committed copy are dirty
	// from the start, so the next commit rewrites them exactly as a full
	// re-marshal of the metadata would.
	dataBlocks := fs.sb.totalBlocks - fs.sb.dataStart
	for i := dataBlocks / 8; i < uint64(len(fs.bitmap)); i++ {
		keep := byte(0)
		if i == dataBlocks/8 {
			keep = 1<<(dataBlocks%8) - 1
		}
		if fs.bitmap[i]&^keep != 0 {
			fs.bitmap[i] &= keep
			fs.dirtyBitmap.add(i / uint64(bs))
		}
	}
	blk := make([]byte, bs)
	for b := range fs.sb.inodeBlocks {
		fs.marshalInodeBlock(b, blk)
		if !bytes.Equal(blk, region(inodeBytes, b, bs)) {
			fs.dirtyItable.add(b)
		}
	}

	root := &fs.inodes[rootIno]
	if root.mode != modeDir {
		return fmt.Errorf("%w: missing root directory", ErrNotFormatted)
	}
	// The directory is read whole, so bound its size before allocating:
	// at most one maximal entry per file inode, all inside the data region.
	maxDir := min(8+uint64(fs.sb.inodeCount-rootIno-1)*(10+maxNameLen), dataBlocks*uint64(bs))
	if root.size > maxDir {
		return fmt.Errorf("%w: root directory size %d", ErrNotFormatted, root.size)
	}

	dirBytes, err := fs.readInodeData(root)
	if err != nil {
		return fmt.Errorf("minifs: reading root directory: %w", err)
	}
	if err := fs.unmarshalDir(dirBytes); err != nil {
		return err
	}
	return nil
}

// validate checks the superblock geometry before any of it sizes a read or
// an allocation: the regions follow the superblock in layout order without
// overlapping, all inside the device, and each is big enough for what
// Mount and Sync put in it. blockSize and totalBlocks must already match
// the device.
func (sb *superblock) validate() error {
	bs := uint64(sb.blockSize)
	total := sb.totalBlocks
	next := uint64(1)
	for _, r := range [...]struct{ start, n uint64 }{
		{sb.jdescStart, sb.jdescBlocks},
		{sb.jdataStart, sb.jdataBlocks},
		{sb.bitmapStart, sb.bitmapBlocks},
		{sb.inodeStart, sb.inodeBlocks},
	} {
		if r.start < next || r.start > total || r.n > total-r.start {
			return fmt.Errorf("%w: bad region layout", ErrNotFormatted)
		}
		next = r.start + r.n
	}
	switch {
	case sb.dataStart < next || sb.dataStart >= total:
		return fmt.Errorf("%w: bad region layout", ErrNotFormatted)
	case sb.jdescBlocks*bs < jdescHeaderLen+8*sb.jdataBlocks:
		return fmt.Errorf("%w: journal descriptor too small", ErrNotFormatted)
	case sb.jdataBlocks < sb.bitmapBlocks+sb.inodeBlocks:
		return fmt.Errorf("%w: journal too small", ErrNotFormatted)
	case sb.bitmapBlocks*bs*8 < total-sb.dataStart:
		return fmt.Errorf("%w: bitmap too small", ErrNotFormatted)
	case uint64(sb.inodeCount)*inodeSize > sb.inodeBlocks*bs:
		return fmt.Errorf("%w: inode table too small", ErrNotFormatted)
	}
	return nil
}

func marshalInode(ind *inode, b []byte) {
	le.PutUint64(b[0:], uint64(ind.mode))
	le.PutUint64(b[8:], ind.size)
	for i := 0; i < numDirect; i++ {
		le.PutUint64(b[16+8*i:], ind.direct[i])
	}
	le.PutUint64(b[16+8*numDirect:], ind.indirect)
	le.PutUint64(b[24+8*numDirect:], ind.dindirect)
}

func unmarshalInode(ind *inode, b []byte) {
	ind.mode = uint32(le.Uint64(b[0:]))
	ind.size = le.Uint64(b[8:])
	for i := 0; i < numDirect; i++ {
		ind.direct[i] = le.Uint64(b[16+8*i:])
	}
	ind.indirect = le.Uint64(b[16+8*numDirect:])
	ind.dindirect = le.Uint64(b[24+8*numDirect:])
}

// marshalDir serializes the root directory: count, then (ino, nameLen,
// name) entries in sorted-name order for determinism. fs.dir is kept
// sorted, so this is one pass.
func (fs *FS) marshalDir() []byte {
	size := 8
	for _, e := range fs.dir {
		size += 8 + 2 + len(e.name)
	}
	out := make([]byte, size)
	le.PutUint64(out, uint64(len(fs.dir)))
	off := 8
	for _, e := range fs.dir {
		le.PutUint64(out[off:], uint64(e.ino))
		off += 8
		le.PutUint16(out[off:], uint16(len(e.name)))
		off += 2
		off += copy(out[off:], e.name)
	}
	return out
}

// unmarshalDir parses the root directory. Entries must fit the directory,
// have names no longer than Create allows, come in strictly ascending name
// order, as marshalDir writes them, and each reference a different file
// inode; anything else is corruption. The inode table must already be
// loaded.
func (fs *FS) unmarshalDir(b []byte) error {
	fs.dir = nil
	if len(b) < 8 {
		return nil // empty directory
	}
	count := le.Uint64(b)
	off := 8
	named := make([]bool, len(fs.inodes))
	for i := uint64(0); i < count; i++ {
		if off+10 > len(b) {
			return fmt.Errorf("%w: truncated directory", ErrNotFormatted)
		}
		ino := le.Uint64(b[off:])
		off += 8
		nameLen := int(le.Uint16(b[off:]))
		off += 2
		if nameLen > maxNameLen || off+nameLen > len(b) {
			return fmt.Errorf("%w: bad directory entry", ErrNotFormatted)
		}
		name := string(b[off : off+nameLen])
		off += nameLen
		switch {
		case ino <= rootIno || ino >= uint64(len(fs.inodes)) || fs.inodes[ino].mode != modeFile:
			return fmt.Errorf("%w: directory entry %q references inode %d", ErrNotFormatted, name, ino)
		case named[ino]:
			return fmt.Errorf("%w: directory entry %q reuses inode %d", ErrNotFormatted, name, ino)
		case len(fs.dir) > 0 && name <= fs.dir[len(fs.dir)-1].name:
			return fmt.Errorf("%w: directory entry %q out of order", ErrNotFormatted, name)
		}
		named[ino] = true
		fs.dir = append(fs.dir, dirent{name: name, ino: uint32(ino)})
	}
	return nil
}

// writeInodeData replaces ind's content with data (used for the root
// directory). The old blocks are freed — but stay reserved via pendingFree
// until the next commit lands — and fresh blocks are allocated and written
// directly: shadow paging, so the committed inode keeps pointing at intact
// old content until the journal flips. Caller holds fs.mu.
func (fs *FS) writeInodeData(ind *inode, data []byte) error {
	if err := fs.freeInodeBlocks(ind); err != nil {
		return err
	}
	ind.direct = [numDirect]uint64{}
	ind.indirect, ind.dindirect, ind.size = 0, 0, 0

	bs := fs.sb.blockSize
	buf := make([]byte, bs)
	for off := 0; off < len(data); off += bs {
		fileBlock := uint64(off / bs)
		abs, _, err := fs.blockFor(ind, fileBlock, true)
		if err != nil {
			return err
		}
		n := copy(buf, data[off:])
		for i := n; i < bs; i++ {
			buf[i] = 0
		}
		if err := storage.WriteBlocks(fs.dev, abs, buf); err != nil {
			return err
		}
	}
	ind.size = uint64(len(data))
	return nil
}

// readInodeData returns ind's full content. Caller holds fs.mu.
func (fs *FS) readInodeData(ind *inode) ([]byte, error) {
	out := make([]byte, ind.size)
	bs := fs.sb.blockSize
	buf := make([]byte, bs)
	for off := 0; off < len(out); off += bs {
		fileBlock := uint64(off / bs)
		abs, _, err := fs.blockFor(ind, fileBlock, false)
		if err != nil {
			return nil, err
		}
		if abs == 0 {
			continue // hole reads as zeros
		}
		if err := storage.ReadBlocks(fs.dev, abs, buf); err != nil {
			return nil, err
		}
		copy(out[off:], buf)
	}
	return out, nil
}
