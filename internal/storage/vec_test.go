package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"mobiceal/internal/prng"
)

// randomVecOver carves buf into a random segmentation of whole blocks.
func randomVecOver(src *prng.Source, bs int, buf []byte) BlockVec {
	v := Vec(bs)
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

// flatten gathers a vec into one fresh contiguous buffer.
func flatten(v BlockVec) []byte {
	out := make([]byte, 0, v.Bytes())
	_ = v.Range(func(_ int, seg []byte) error {
		out = append(out, seg...)
		return nil
	})
	return out
}

func TestBlockVecHelpers(t *testing.T) {
	const bs = 16
	a := make([]byte, 2*bs)
	b := make([]byte, 3*bs)
	c := make([]byte, 1*bs)
	for i := range a {
		a[i] = 'a'
	}
	for i := range b {
		b[i] = 'b'
	}
	for i := range c {
		c[i] = 'c'
	}
	v := Vec(bs, a, b, c)
	if v.Len() != 6 || v.Bytes() != 6*bs || v.Segments() != 3 {
		t.Fatalf("Len=%d Bytes=%d Segments=%d", v.Len(), v.Bytes(), v.Segments())
	}
	want := append(append(append([]byte(nil), a...), b...), c...)
	if !bytes.Equal(flatten(v), want) {
		t.Fatal("flatten mismatch")
	}
	// Full-range slice reproduces the vec; zero-length slice is empty.
	if got := flatten(v.Slice(0, 6)); !bytes.Equal(got, want) {
		t.Fatal("full Slice mismatch")
	}
	if v.Slice(4, 0).Len() != 0 {
		t.Fatal("empty slice not empty")
	}
	// Slice shares memory with the source segments.
	sub := v.Slice(1, 3) // second block of a, first two of b
	if sub.Len() != 3 {
		t.Fatalf("sub.Len=%d", sub.Len())
	}
	sub.Seg(0)[0] = 'X'
	if a[bs] != 'X' {
		t.Fatal("Slice does not alias the source segment")
	}
	if !bytes.Equal(flatten(sub), append(append([]byte(nil), a[bs:]...), b[:2*bs]...)) {
		t.Fatal("Slice content mismatch")
	}
	// Range walks segments with correct block offsets.
	offs := []int{}
	_ = v.Range(func(off int, seg []byte) error {
		offs = append(offs, off, len(seg)/bs)
		return nil
	})
	wantOffs := []int{0, 2, 2, 3, 5, 1}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] {
			t.Fatalf("Range offsets %v, want %v", offs, wantOffs)
		}
	}
	// EachBlock walks blocks across segment boundaries, aliasing them.
	var blockOffs []int
	_ = v.EachBlock(func(off int, blk []byte) error {
		if len(blk) != bs {
			t.Fatalf("EachBlock block of %d bytes", len(blk))
		}
		blockOffs = append(blockOffs, off)
		return nil
	})
	if fmt.Sprint(blockOffs) != "[0 1 2 3 4 5]" {
		t.Fatalf("EachBlock offsets %v", blockOffs)
	}
	// VecOne of an empty buffer is the empty vec.
	if e := VecOne(bs, nil); e.Len() != 0 || e.Segments() != 0 {
		t.Fatalf("VecOne(nil): Len=%d Segments=%d", e.Len(), e.Segments())
	}
	// Malformed segments panic.
	for _, bad := range [][]byte{nil, make([]byte, bs-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Vec accepted segment of len %d", len(bad))
				}
			}()
			Vec(bs, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range Slice did not panic")
			}
		}()
		v.Slice(4, 3)
	}()
}

// plainDevice serves every vec one block per inner call, the shape of
// the per-block baselines (hive, defy).
type plainDevice struct {
	inner Device
}

func (d *plainDevice) BlockSize() int               { return d.inner.BlockSize() }
func (d *plainDevice) NumBlocks() uint64            { return d.inner.NumBlocks() }
func (d *plainDevice) Discard(_, _, _ uint64) error { return nil }
func (d *plainDevice) Sync(fid uint64) error        { return d.inner.Sync(fid) }
func (d *plainDevice) Close() error                 { return d.inner.Close() }
func (d *plainDevice) ReadVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.NumBlocks()); err != nil {
		return err
	}
	return v.EachBlock(func(i int, b []byte) error {
		return d.inner.ReadVec(fid, start+uint64(i), VecOne(len(b), b))
	})
}
func (d *plainDevice) WriteVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.NumBlocks()); err != nil {
		return err
	}
	return v.EachBlock(func(i int, b []byte) error {
		return d.inner.WriteVec(fid, start+uint64(i), VecOne(len(b), b))
	})
}

// rangeOnlyDevice serves every vec one flat segment per inner call.
type rangeOnlyDevice struct {
	plainDevice
}

func (d *rangeOnlyDevice) ReadVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.NumBlocks()); err != nil {
		return err
	}
	return v.Range(func(off int, seg []byte) error {
		return d.inner.ReadVec(fid, start+uint64(off), VecOne(v.BlockSize(), seg))
	})
}

func (d *rangeOnlyDevice) WriteVec(fid, start uint64, v BlockVec) error {
	if err := CheckVec(start, v, d.BlockSize(), d.NumBlocks()); err != nil {
		return err
	}
	return v.Range(func(off int, seg []byte) error {
		return d.inner.WriteVec(fid, start+uint64(off), VecOne(v.BlockSize(), seg))
	})
}

// TestVecFlatEquivalenceRandomized drives every device implementation with
// interleaved random vec and flat operations and asserts the vec path is
// byte-equivalent to the flat path at every step: vec writes land exactly
// like the flattened write would, vec reads return exactly what a flat
// read does.
func TestVecFlatEquivalenceRandomized(t *testing.T) {
	const (
		bs     = 512
		blocks = 257 // off power-of-two to cross slab/dir boundaries unevenly
		rounds = 300
	)
	builders := map[string]func(t *testing.T) Device{
		"mem": func(t *testing.T) Device {
			return NewMemDevice(bs, blocks)
		},
		"mem-noise": func(t *testing.T) Device {
			return NewMemDeviceBackground(bs, blocks, NewNoiseBackground(7))
		},
		"file": func(t *testing.T) Device {
			d, err := CreateFileDevice(filepath.Join(t.TempDir(), "img"), bs, blocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"slice-of-mem": func(t *testing.T) Device {
			parent := NewMemDevice(bs, blocks+31)
			d, err := NewSliceDevice(parent, 17, blocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"stats": func(t *testing.T) Device {
			return NewStatsDevice(NewMemDevice(bs, blocks))
		},
		"fault-disarmed": func(t *testing.T) Device {
			return NewFaultDevice(NewMemDevice(bs, blocks))
		},
		"crash": func(t *testing.T) Device {
			return NewCrashDevice(NewMemDevice(bs, blocks))
		},
		"plain-fallback": func(t *testing.T) Device {
			return &plainDevice{inner: NewMemDevice(bs, blocks)}
		},
		"range-only-fallback": func(t *testing.T) Device {
			return &rangeOnlyDevice{plainDevice{inner: NewMemDevice(bs, blocks)}}
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			src := prng.NewSource(0xd5e + uint64(len(name)))
			dev := build(t)
			ref := NewMemDevice(bs, blocks) // flat-path reference
			payload := make([]byte, blocks*bs)
			for r := 0; r < rounds; r++ {
				start := src.Uint64n(blocks)
				n := 1 + src.Uint64n(blocks-start)
				if n > 24 {
					n = 24
				}
				buf := payload[:int(n)*bs]
				if _, err := src.Read(buf); err != nil {
					t.Fatal(err)
				}
				// Vec write to the device under test, flat write to the
				// reference.
				if err := dev.WriteVec(0, start, randomVecOver(src, bs, buf)); err != nil {
					t.Fatalf("round %d: vec write: %v", r, err)
				}
				if err := WriteBlocks(ref, start, buf); err != nil {
					t.Fatal(err)
				}
				// Vec read back through a fresh random segmentation.
				rstart := src.Uint64n(blocks)
				rn := 1 + src.Uint64n(blocks-rstart)
				if rn > 24 {
					rn = 24
				}
				got := make([]byte, int(rn)*bs)
				if err := dev.ReadVec(0, rstart, randomVecOver(src, bs, got)); err != nil {
					t.Fatalf("round %d: vec read: %v", r, err)
				}
				want := make([]byte, len(got))
				if err := ReadBlocks(dev, rstart, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: vec read disagrees with flat read", r)
				}
			}
			// Final state: full image must match the flat-path reference,
			// modulo background (compare only written coverage via full
			// read on devices with zero background).
			if name != "mem-noise" {
				got := make([]byte, blocks*bs)
				if err := ReadBlocks(dev, 0, got); err != nil {
					t.Fatal(err)
				}
				want := make([]byte, blocks*bs)
				if err := ReadBlocks(ref, 0, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("final device image differs from flat-path reference")
				}
			}
			_ = dev.Close()
		})
	}
}

// TestSnapshotVecRead asserts vec reads of a snapshot agree with flat
// reads, including unmaterialized background spans, and that snapshots
// reject vec writes.
func TestSnapshotVecRead(t *testing.T) {
	const bs, blocks = 256, 64
	src := prng.NewSource(99)
	d := NewMemDeviceBackground(bs, blocks, NewNoiseBackground(3))
	buf := make([]byte, 4*bs)
	for i := 0; i < 10; i++ {
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := WriteBlocks(d, src.Uint64n(blocks-4), buf); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	for r := 0; r < 50; r++ {
		start := src.Uint64n(blocks)
		n := 1 + src.Uint64n(blocks-start)
		got := make([]byte, int(n)*bs)
		if err := snap.ReadVec(0, start, randomVecOver(src, bs, got)); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(got))
		if err := ReadBlocks(snap, start, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: snapshot vec read mismatch", r)
		}
	}
	seg := make([]byte, bs)
	if err := snap.WriteVec(0, 0, Vec(bs, seg)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot vec write: %v, want ErrReadOnly", err)
	}
}

// TestVecGeometryErrors pins validation: mismatched vec block size,
// out-of-range vecs, and the zero-length no-op.
func TestVecGeometryErrors(t *testing.T) {
	const bs, blocks = 128, 16
	d := NewMemDevice(bs, blocks)
	seg := make([]byte, 2*bs)
	if err := d.WriteVec(0, blocks-1, Vec(bs, seg, seg)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow vec write: %v, want ErrOutOfRange", err)
	}
	if err := d.ReadVec(0, blocks, Vec(bs, seg, seg)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range vec read: %v, want ErrOutOfRange", err)
	}
	other := Vec(64, make([]byte, 64), make([]byte, 64))
	if err := d.WriteVec(0, 0, other); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size vec: %v, want ErrBadBuffer", err)
	}
	// The single-segment fast path must enforce the same rule: a
	// one-segment vec in the wrong block unit would silently transfer the
	// wrong extent if it degraded to the flat path unchecked.
	oneWrong := Vec(64, make([]byte, 2*bs))
	if err := d.WriteVec(0, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec write: %v, want ErrBadBuffer", err)
	}
	if err := d.ReadVec(0, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec read: %v, want ErrBadBuffer", err)
	}
	if err := (&plainDevice{inner: d}).ReadVec(0, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec on plain device: %v, want ErrBadBuffer", err)
	}
	if err := d.WriteVec(0, blocks, Vec(bs)); err != nil {
		t.Fatalf("empty vec should be a no-op anywhere: %v", err)
	}
}

// TestFaultDeviceVecPartial exercises the block-granular fault budget
// across segment boundaries: a vec op that exhausts the budget completes
// exactly the covered prefix — ending mid-segment — and reports it via
// PartialError.
func TestFaultDeviceVecPartial(t *testing.T) {
	const bs, blocks = 128, 64
	src := prng.NewSource(4242)
	for budget := 0; budget <= 10; budget++ {
		mem := NewMemDevice(bs, blocks)
		fd := NewFaultDevice(mem)
		payload := make([]byte, 10*bs)
		if _, err := src.Read(payload); err != nil {
			t.Fatal(err)
		}
		// Segmentation 3+4+3 guarantees every budget in (0,10) cuts either
		// at or inside a segment.
		v := Vec(bs, payload[:3*bs], payload[3*bs:7*bs], payload[7*bs:])
		fd.FailWritesAfter(budget)
		err := fd.WriteVec(0, 2, v)
		if budget >= 10 {
			if err != nil {
				t.Fatalf("budget %d: unexpected error %v", budget, err)
			}
			continue
		}
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("budget %d: error %v, want PartialError", budget, err)
		}
		if pe.Done != budget {
			t.Fatalf("budget %d: Done=%d", budget, pe.Done)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("budget %d: PartialError must wrap ErrInjected", budget)
		}
		// Exactly the prefix landed.
		got := make([]byte, 10*bs)
		if err := ReadBlocks(mem, 2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:budget*bs], payload[:budget*bs]) {
			t.Fatalf("budget %d: prefix content mismatch", budget)
		}
		if mem.WrittenBlocks() != budget {
			t.Fatalf("budget %d: %d blocks materialized", budget, mem.WrittenBlocks())
		}

		// Same contract on the read side.
		fd2 := NewFaultDevice(mem)
		fd2.FailReadsAfter(budget)
		rv := Vec(bs, make([]byte, 3*bs), make([]byte, 4*bs), make([]byte, 3*bs))
		rerr := fd2.ReadVec(0, 2, rv)
		if !errors.As(rerr, &pe) || pe.Done != budget {
			t.Fatalf("read budget %d: error %v", budget, rerr)
		}
	}
}

// TestCrashDeviceVecWriteOrder asserts vec writes enter the volatile cache
// in vec order, so the FIFO flush stream (and therefore crash-image
// enumeration) is identical to the flat path's.
func TestCrashDeviceVecWriteOrder(t *testing.T) {
	const bs, blocks = 128, 32
	mem := NewMemDevice(bs, blocks)
	cd := NewCrashDevice(mem)
	if err := cd.StartRecording(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 6*bs)
	for i := range payload {
		payload[i] = byte(i/bs) + 1 // nonzero: distinguishable from pre-image
	}
	v := Vec(bs, payload[:bs], payload[bs:4*bs], payload[4*bs:])
	if err := cd.WriteVec(0, 10, v); err != nil {
		t.Fatal(err)
	}
	if got := cd.InFlight(); got != 6 {
		t.Fatalf("InFlight=%d, want 6", got)
	}
	// Reads before the flush see the cache through the vec path too.
	rv := make([]byte, 6*bs)
	if err := cd.ReadVec(0, 10, Vec(bs, rv[:2*bs], rv[2*bs:])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rv, payload) {
		t.Fatal("vec read of cached blocks mismatch")
	}
	if err := cd.Sync(0); err != nil {
		t.Fatal(err)
	}
	if got := cd.PersistedWrites(); got != 6 {
		t.Fatalf("PersistedWrites=%d, want 6", got)
	}
	// The write log must hold blocks 10..15 in ascending (vec) order:
	// crash images cut mid-vec recover a prefix in block order.
	for n := 0; n <= 6; n++ {
		img, err := cd.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, bs)
		for i := 0; i < 6; i++ {
			if err := ReadBlocks(img, 10+uint64(i), buf); err != nil {
				t.Fatal(err)
			}
			wantWritten := i < n
			isWritten := bytes.Equal(buf, payload[i*bs:(i+1)*bs])
			if isWritten != wantWritten {
				t.Fatalf("crash image %d: block %d written=%v, want %v", n, 10+i, isWritten, wantWritten)
			}
		}
	}
}

// TestVecFallbackLadderDispatch pins which rung each device class lands
// on: single-segment vecs use the flat range path even on vec devices.
func TestVecFallbackLadderDispatch(t *testing.T) {
	const bs, blocks = 128, 16
	mem := NewMemDevice(bs, blocks)
	sd := NewStatsDevice(mem)
	one := Vec(bs, make([]byte, 2*bs))
	if err := sd.WriteVec(0, 0, one); err != nil {
		t.Fatal(err)
	}
	if got := sd.Stats().Writes; got != 2 {
		t.Fatalf("stats writes=%d, want 2", got)
	}
	multi := Vec(bs, make([]byte, bs), make([]byte, bs))
	if err := sd.WriteVec(0, 4, multi); err != nil {
		t.Fatal(err)
	}
	if got := sd.Stats().Writes; got != 4 {
		t.Fatalf("stats writes=%d, want 4 (vec counted once per block)", got)
	}
	if fmt.Sprint(sd.Stats().BytesWrite) != fmt.Sprint(4*bs) {
		t.Fatalf("bytes=%d", sd.Stats().BytesWrite)
	}
}
