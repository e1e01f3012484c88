package dm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

func testCrypt(t *testing.T, blocks uint64) (*Crypt, *storage.MemDevice) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	cipher, err := xcrypto.NewXTS(key)
	if err != nil {
		t.Fatalf("NewXTS: %v", err)
	}
	inner := storage.NewMemDevice(512, blocks)
	return NewCrypt(inner, cipher, nil), inner
}

// TestCryptRangeMatchesBlockwise checks that vectored and per-block crypt
// I/O produce identical plaintext and ciphertext in every combination.
func TestCryptRangeMatchesBlockwise(t *testing.T) {
	const blocks = 32
	c, inner := testCrypt(t, blocks)
	rng := rand.New(rand.NewSource(9))

	// Vectored write, per-block read back.
	data := make([]byte, 8*512)
	rng.Read(data)
	if err := storage.WriteBlocks(c, 3, data); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	for i := 0; i < 8; i++ {
		got := make([]byte, 512)
		if err := storage.ReadBlocks(c, uint64(3+i), got); err != nil {
			t.Fatalf("ReadBlocks: %v", err)
		}
		if !bytes.Equal(got, data[i*512:(i+1)*512]) {
			t.Fatalf("block %d: per-block read diverges from vectored write", 3+i)
		}
	}
	// Per-block write, vectored read back.
	rng.Read(data)
	for i := 0; i < 8; i++ {
		if err := storage.WriteBlocks(c, uint64(12+i), data[i*512:(i+1)*512]); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
	}
	got := make([]byte, 8*512)
	if err := storage.ReadBlocks(c, 12, got); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored read diverges from per-block writes")
	}
	// The ciphertext on the inner device must differ from the plaintext
	// and decrypt per-sector — i.e. the vectored path used the same sector
	// numbering as the per-block path.
	ct := make([]byte, 512)
	if err := storage.ReadBlocks(inner, 3, ct); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, data[:512]) {
		t.Fatal("inner device holds plaintext")
	}
	// The caller's buffer must never be mutated by WriteBlocks.
	orig := make([]byte, 4*512)
	rng.Read(orig)
	cp := append([]byte(nil), orig...)
	if err := storage.WriteBlocks(c, 20, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, cp) {
		t.Fatal("WriteBlocks mutated the caller's buffer")
	}
}

func TestCryptRangeRejectsMisalignedBuffers(t *testing.T) {
	c, _ := testCrypt(t, 8)
	if err := storage.WriteBlocks(c, 0, make([]byte, 513)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned write err = %v, want ErrBadBuffer", err)
	}
	if err := storage.ReadBlocks(c, 0, make([]byte, 1023)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned read err = %v, want ErrBadBuffer", err)
	}
}

func TestLinearAndZeroRange(t *testing.T) {
	inner := storage.NewMemDevice(512, 64)
	lin, err := NewLinear(inner, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*512)
	for i := range data {
		data[i] = byte(i)
	}
	if err := storage.WriteBlocks(lin, 2, data); err != nil {
		t.Fatalf("linear WriteBlocks: %v", err)
	}
	got := make([]byte, 4*512)
	if err := storage.ReadBlocks(inner, 18, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("linear range write landed at wrong offset")
	}
	if err := storage.ReadBlocks(lin, 31, make([]byte, 2*512)); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("linear overrun err = %v, want ErrOutOfRange", err)
	}

	z := NewZero(512, 8)
	buf := bytes.Repeat([]byte{0xFF}, 3*512)
	if err := storage.ReadBlocks(z, 1, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("zero device byte %d = %#x", i, b)
		}
	}
	if err := storage.WriteBlocks(z, 5, make([]byte, 3*512)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(z, 7, make([]byte, 2*512)); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("zero overrun err = %v, want ErrOutOfRange", err)
	}
}
