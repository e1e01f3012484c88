package dm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// vecOver carves buf into a random whole-block segmentation.
func vecOver(src *prng.Source, bs int, buf []byte) storage.BlockVec {
	v := storage.Vec(bs)
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

// TestCryptVecFlatEquivalence drives dm-crypt with random vec writes and
// reads and asserts byte equivalence with the flat range path: the
// ciphertext on the inner device must be identical (same sector IVs
// regardless of segmentation) and vec reads must round-trip, including
// across a flat/vec boundary (flat write, vec read and vice versa).
func TestCryptVecFlatEquivalence(t *testing.T) {
	const bs, blocks = 512, 128
	src := prng.NewSource(31337)
	key := make([]byte, 64)
	if _, err := src.Read(key); err != nil {
		t.Fatal(err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		t.Fatal(err)
	}
	innerVec := storage.NewMemDevice(bs, blocks)
	innerFlat := storage.NewMemDevice(bs, blocks)
	cVec := NewCrypt(innerVec, cipher, nil)
	cFlat := NewCrypt(innerFlat, cipher, nil)

	for r := 0; r < 200; r++ {
		start := src.Uint64n(blocks)
		n := 1 + src.Uint64n(blocks-start)
		if n > 24 {
			n = 24
		}
		buf := make([]byte, int(n)*bs)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := cVec.WriteVec(0, start, vecOver(src, bs, buf)); err != nil {
			t.Fatalf("round %d: vec write: %v", r, err)
		}
		if err := storage.WriteBlocks(cFlat, start, buf); err != nil {
			t.Fatal(err)
		}
		// Plaintext reads agree through both paths.
		got := make([]byte, len(buf))
		if err := cVec.ReadVec(0, start, vecOver(src, bs, got)); err != nil {
			t.Fatalf("round %d: vec read: %v", r, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("round %d: vec read round-trip mismatch", r)
		}
		flatGot := make([]byte, len(buf))
		if err := storage.ReadBlocks(cFlat, start, flatGot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatGot, buf) {
			t.Fatalf("round %d: flat read round-trip mismatch", r)
		}
	}
	// The two inner devices must hold identical ciphertext: segmentation
	// must not leak into sector numbering.
	a := make([]byte, blocks*bs)
	b := make([]byte, blocks*bs)
	if err := storage.ReadBlocks(innerVec, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(innerFlat, 0, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("ciphertext differs between vec and flat write paths")
	}
}

// TestCryptVecMeterParity asserts the virtual-clock charges of a vec op
// equal the flat op's: per-block traversal, per-byte crypto — invariant to
// segmentation, so testbed metrics cannot drift when schedulers merge.
func TestCryptVecMeterParity(t *testing.T) {
	const bs, blocks = 512, 64
	src := prng.NewSource(7)
	key := make([]byte, 64)
	if _, err := src.Read(key); err != nil {
		t.Fatal(err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		t.Fatal(err)
	}
	charge := func(vec bool) time.Duration {
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, vclock.Nexus4())
		c := NewCrypt(storage.NewMemDevice(bs, blocks), cipher, meter)
		buf := make([]byte, 12*bs)
		var werr, rerr error
		if vec {
			werr = c.WriteVec(0, 3, vecOver(src, bs, buf))
			rerr = c.ReadVec(0, 3, vecOver(src, bs, buf))
		} else {
			werr = storage.WriteBlocks(c, 3, buf)
			rerr = storage.ReadBlocks(c, 3, buf)
		}
		if werr != nil || rerr != nil {
			t.Fatal(werr, rerr)
		}
		return meter.Clock().Now()
	}
	if flat, vec := charge(false), charge(true); flat != vec {
		t.Fatalf("virtual time differs: flat %v, vec %v", flat, vec)
	}
}

// TestLinearZeroVec covers the passthrough targets.
func TestLinearZeroVec(t *testing.T) {
	const bs, blocks = 256, 64
	src := prng.NewSource(11)
	parent := storage.NewMemDevice(bs, blocks)
	lin, err := NewLinear(parent, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6*bs)
	if _, err := src.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := lin.WriteVec(0, 4, vecOver(src, bs, buf)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := lin.ReadVec(0, 4, vecOver(src, bs, got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("linear vec round-trip mismatch")
	}
	// The data landed at the remapped parent offset.
	p := make([]byte, len(buf))
	if err := storage.ReadBlocks(parent, 12, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, buf) {
		t.Fatal("linear remap mismatch")
	}

	z := NewZero(bs, 16)
	zbuf := make([]byte, 4*bs)
	for i := range zbuf {
		zbuf[i] = 0xff
	}
	v := storage.Vec(bs, zbuf[:bs], zbuf[bs:])
	if err := z.WriteVec(0, 0, v); err != nil {
		t.Fatal(err)
	}
	if err := z.ReadVec(0, 0, v); err != nil {
		t.Fatal(err)
	}
	for _, b := range zbuf {
		if b != 0 {
			t.Fatal("dm-zero vec read returned nonzero")
		}
	}
	if err := z.ReadVec(0, 14, v); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range zero vec: %v", err)
	}
	// A vec carrying the wrong block size is rejected like the flat path
	// rejects misaligned buffers — the vec and flat paths of a device
	// must agree on malformed requests.
	wrong := storage.Vec(bs/2, make([]byte, bs/2), make([]byte, bs/2))
	if err := z.ReadVec(0, 0, wrong); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("wrong-block-size zero vec read: %v, want ErrBadBuffer", err)
	}
	if err := z.WriteVec(0, 0, wrong); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("wrong-block-size zero vec write: %v, want ErrBadBuffer", err)
	}
}
