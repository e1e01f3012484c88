package storage

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Background describes what unwritten blocks of a MemDevice contain.
//
// PDE systems care deeply about this: hidden-volume schemes (TrueCrypt,
// Mobiflage, MobiPluto) fill the whole disk with randomness at setup time and
// hide ciphertext inside it, while a factory-fresh device reads as zeros.
// Modeling the fill as a *background function* instead of materializing it
// lets simulated devices be large while snapshots and diffs stay exact.
type Background interface {
	// FillBlock writes the background content of block idx into dst.
	FillBlock(idx uint64, dst []byte)
	// Equal reports whether the other background generates identical
	// content (used by snapshot diffing).
	Equal(other Background) bool
}

// ZeroBackground is a Background of all-zero blocks, modeling a blank or
// TRIMmed device.
type ZeroBackground struct{}

var _ Background = ZeroBackground{}

// FillBlock implements Background.
func (ZeroBackground) FillBlock(_ uint64, dst []byte) {
	clear(dst)
}

// Equal implements Background.
func (ZeroBackground) Equal(other Background) bool {
	_, ok := other.(ZeroBackground)
	return ok
}

// NoiseBackground generates deterministic pseudorandom content per block,
// modeling a device that was filled with randomness at initialization (the
// static defense of single-snapshot PDE schemes). Content is an AES-CTR
// keystream keyed by the seed with the block index as nonce, so it is
// indistinguishable from ciphertext — exactly the property those schemes
// rely on.
type NoiseBackground struct {
	seed  uint64
	block cipher.Block
}

var _ Background = (*NoiseBackground)(nil)

// NewNoiseBackground returns a NoiseBackground derived from seed.
func NewNoiseBackground(seed uint64) *NoiseBackground {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:16], seed^0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(key[16:24], seed*0xbf58476d1ce4e5b9+1)
	binary.LittleEndian.PutUint64(key[24:32], ^seed)
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("storage: aes.NewCipher with fixed-size key: %v", err))
	}
	return &NoiseBackground{seed: seed, block: blk}
}

// FillBlock implements Background. The keystream is produced by encrypting
// the counter straight into dst — byte-identical to XORing an AES-CTR
// stream into zeros, without the zeroing pass and the XOR pass.
func (n *NoiseBackground) FillBlock(idx uint64, dst []byte) {
	var ctr [aes.BlockSize]byte
	binary.BigEndian.PutUint64(ctr[:8], idx)
	for len(dst) >= aes.BlockSize {
		n.block.Encrypt(dst[:aes.BlockSize], ctr[:])
		incCounter(&ctr)
		dst = dst[aes.BlockSize:]
	}
	if len(dst) > 0 {
		var tail [aes.BlockSize]byte
		n.block.Encrypt(tail[:], ctr[:])
		copy(dst, tail[:])
	}
}

// incCounter increments a CTR counter block (big-endian, full width), the
// same stepping cipher.NewCTR applies.
func incCounter(ctr *[aes.BlockSize]byte) {
	for i := aes.BlockSize - 1; i >= 0; i-- {
		ctr[i]++
		if ctr[i] != 0 {
			return
		}
	}
}

// Equal implements Background.
func (n *NoiseBackground) Equal(other Background) bool {
	o, ok := other.(*NoiseBackground)
	return ok && o.seed == n.seed
}

// Block-store geometry: blocks are grouped into slabs — one contiguous
// allocation each, so a device holding S written blocks costs S/slabBlocks
// allocations instead of S — and slabs are grouped into directories. The
// two fixed levels keep the root small (one pointer per 16384 blocks), and
// give snapshots natural copy-on-write grain: a snapshot seals the current
// generation of directories and slabs, and the first write into a sealed
// structure clones just that structure.
const (
	// 8 blocks per slab balances allocation coalescing against the cost a
	// cold random single-block write pays to materialize (and zero) its
	// whole slab — the write pattern MobiCeal's random allocator produces.
	slabBlockBits = 3
	slabBlocks    = 1 << slabBlockBits // blocks per slab
	slabMask      = slabBlocks - 1
	dirSlabBits   = 11
	dirSlabs      = 1 << dirSlabBits // slabs per directory
	dirBlockBits  = slabBlockBits + dirSlabBits
	dirBlocks     = 1 << dirBlockBits // blocks per directory
)

// slab holds the materialized content of slabBlocks consecutive blocks.
// written tracks which of them were ever explicitly written; the rest of
// data is zero filler that must not shadow the device background.
type slab struct {
	gen     uint64
	written uint64
	data    []byte
}

// slabDir is one directory of slabs.
type slabDir struct {
	gen   uint64
	slabs [dirSlabs]*slab
}

// MemDevice is an in-memory sparse block device with snapshot support. Blocks
// that were never written read as the configured Background. MemDevice is
// safe for concurrent use.
//
// Snapshots are copy-on-write: taking one is O(1) — it seals the current
// slab generation — and the cost of isolating it is paid by subsequent
// writes, which clone only the directories and slabs they actually touch.
type MemDevice struct {
	mu        sync.RWMutex
	blockSize int
	numBlocks uint64
	bg        Background
	closed    bool

	// gen is the current write generation; rootGen is the generation the
	// root slice belongs to. A snapshot bumps gen, freezing every structure
	// carrying an older generation; writers clone frozen structures on
	// first touch.
	gen     uint64
	rootGen uint64
	root    []*slabDir

	written uint64 // count of explicitly written blocks
}

// NewMemDevice returns a zero-filled in-memory device with numBlocks blocks
// of blockSize bytes.
func NewMemDevice(blockSize int, numBlocks uint64) *MemDevice {
	return NewMemDeviceBackground(blockSize, numBlocks, ZeroBackground{})
}

// NewMemDeviceBackground returns an in-memory device whose unwritten blocks
// read as bg.
func NewMemDeviceBackground(blockSize int, numBlocks uint64, bg Background) *MemDevice {
	if blockSize <= 0 {
		panic("storage: non-positive block size")
	}
	return &MemDevice{
		blockSize: blockSize,
		numBlocks: numBlocks,
		root:      make([]*slabDir, (numBlocks+dirBlocks-1)/dirBlocks),
		bg:        bg,
	}
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *MemDevice) NumBlocks() uint64 { return d.numBlocks }

// slabAt returns the slab of root covering block idx, or nil.
func slabAt(root []*slabDir, idx uint64) *slab {
	dir := root[idx>>dirBlockBits]
	if dir == nil {
		return nil
	}
	return dir.slabs[(idx>>slabBlockBits)&(dirSlabs-1)]
}

// slabForWrite returns the slab covering block idx, creating it if absent
// and cloning any structure sealed by a snapshot. Caller holds d.mu for
// writing.
func (d *MemDevice) slabForWrite(idx uint64) *slab {
	if d.rootGen != d.gen {
		d.root = append([]*slabDir(nil), d.root...)
		d.rootGen = d.gen
	}
	di := idx >> dirBlockBits
	dir := d.root[di]
	if dir == nil {
		dir = &slabDir{gen: d.gen}
		d.root[di] = dir
	} else if dir.gen != d.gen {
		cp := &slabDir{gen: d.gen, slabs: dir.slabs}
		dir = cp
		d.root[di] = dir
	}
	si := (idx >> slabBlockBits) & (dirSlabs - 1)
	s := dir.slabs[si]
	if s == nil {
		s = &slab{gen: d.gen, data: make([]byte, slabBlocks*d.blockSize)}
		dir.slabs[si] = s
	} else if s.gen != d.gen {
		cp := &slab{gen: d.gen, written: s.written, data: append([]byte(nil), s.data...)}
		s = cp
		dir.slabs[si] = s
	}
	return s
}

// readSlabBlock copies block idx out of s (which covers it), falling back
// to the background for unwritten blocks. s may be nil.
func readSlabBlock(s *slab, idx uint64, dst []byte, bs int, bg Background) {
	off := idx & slabMask
	if s != nil && s.written&(1<<off) != 0 {
		copy(dst, s.data[int(off)*bs:])
		return
	}
	bg.FillBlock(idx, dst)
}

// readSlabRange reads the validated block range [start, start+len(dst)/bs)
// out of a slab tree: fully-written slab spans become single bulk copies,
// the rest falls back per block to the background. Shared by MemDevice
// (under its lock) and the lock-free immutable Snapshot.
func readSlabRange(root []*slabDir, bg Background, bs int, start uint64, dst []byte) {
	n := uint64(len(dst) / bs)
	for i := uint64(0); i < n; {
		idx := start + i
		s := slabAt(root, idx)
		// Blocks of the request inside this slab.
		span := slabBlocks - (idx & slabMask)
		if span > n-i {
			span = n - i
		}
		out := dst[i*uint64(bs) : (i+span)*uint64(bs)]
		if s != nil && covers(s.written, idx&slabMask, span) {
			copy(out, s.data[(idx&slabMask)*uint64(bs):])
		} else {
			for j := uint64(0); j < span; j++ {
				readSlabBlock(s, idx+j, out[j*uint64(bs):(j+1)*uint64(bs)], bs, bg)
			}
		}
		i += span
	}
}

// covers reports whether the written mask has all span bits set starting at
// bit off.
func covers(written, off, span uint64) bool {
	m := (^uint64(0) >> (64 - span)) << off
	return written&m == m
}

// writeRangeLocked stores the validated block range [start,
// start+len(src)/bs): one slab resolution and one bulk copy per slab span.
// Caller holds d.mu for writing.
func (d *MemDevice) writeRangeLocked(start uint64, src []byte) {
	bs := d.blockSize
	n := uint64(len(src) / bs)
	for i := uint64(0); i < n; {
		idx := start + i
		s := d.slabForWrite(idx)
		off := idx & slabMask
		span := slabBlocks - off
		if span > n-i {
			span = n - i
		}
		copy(s.data[off*uint64(bs):(off+span)*uint64(bs)], src[i*uint64(bs):(i+span)*uint64(bs)])
		m := (^uint64(0) >> (64 - span)) << off
		d.written += uint64(bits.OnesCount64(m &^ s.written))
		s.written |= m
		i += span
	}
}

// ReadVec implements Device: one lock acquisition for the whole vec, each
// segment served by per-slab bulk copies (a copy straddling a segment
// boundary splits at the boundary — destinations are distinct buffers —
// but never re-resolves the slab).
func (d *MemDevice) ReadVec(_, start uint64, v BlockVec) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if err := CheckVec(start, v, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	return v.Range(func(off int, seg []byte) error {
		readSlabRange(d.root, d.bg, d.blockSize, start+uint64(off), seg)
		return nil
	})
}

// WriteVec implements Device: one lock acquisition, per-slab bulk copies
// out of each segment.
func (d *MemDevice) WriteVec(_, start uint64, v BlockVec) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := CheckVec(start, v, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	return v.Range(func(off int, seg []byte) error {
		d.writeRangeLocked(start+uint64(off), seg)
		return nil
	})
}

// Discard implements Device. A memory device keeps discarded blocks as
// they are: zeroing or freeing them would change the images an adversary
// snapshots.
func (d *MemDevice) Discard(_, _, _ uint64) error { return nil }

// Sync implements Device. Memory devices have no volatile buffer, so Sync
// only validates the device is open.
func (d *MemDevice) Sync(uint64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// WrittenBlocks returns the number of blocks that have been explicitly
// written (the materialized, non-background set).
func (d *MemDevice) WrittenBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int(d.written)
}

// Snapshot captures a full point-in-time image of the device, the operation
// the paper's multi-snapshot adversary performs at each checkpoint.
//
// The capture is copy-on-write: it shares the device's slab tree and bumps
// the write generation, so the snapshot itself is O(1) and later device
// writes clone only the slabs they dirty. Per checkpoint the total cost is
// O(blocks written since the previous snapshot), not O(all written blocks).
func (d *MemDevice) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := &Snapshot{
		blockSize: d.blockSize,
		numBlocks: d.numBlocks,
		root:      d.root,
		bg:        d.bg,
	}
	d.gen++
	return snap
}
