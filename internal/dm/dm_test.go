package dm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

const blockSize = 4096

func newXTS(t testing.TB, seed uint64) *xcrypto.XTS {
	t.Helper()
	key, err := prng.Bytes(prng.NewSeededEntropy(seed), 64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := xcrypto.NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestCryptRoundtrip(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 32)
	c := NewCrypt(raw, newXTS(t, 1), nil)
	plain := make([]byte, blockSize)
	if _, err := prng.NewSource(9).Read(plain); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(c, 5, plain); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(c, 5, got); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if !bytes.Equal(plain, got) {
		t.Fatal("crypt roundtrip mismatch")
	}
}

func TestCryptCiphertextOnDisk(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 32)
	c := NewCrypt(raw, newXTS(t, 2), nil)
	plain := bytes.Repeat([]byte("secret!!"), blockSize/8)
	if err := storage.WriteBlocks(c, 0, plain); err != nil {
		t.Fatal(err)
	}
	onDisk := make([]byte, blockSize)
	if err := storage.ReadBlocks(raw, 0, onDisk); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(onDisk, plain) {
		t.Fatal("plaintext visible on the raw device")
	}
	if bytes.Contains(onDisk, []byte("secret!!")) {
		t.Fatal("plaintext fragment visible on the raw device")
	}
}

func TestCryptDoesNotMutateCallerBuffer(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, newXTS(t, 3), nil)
	plain := bytes.Repeat([]byte{0x42}, blockSize)
	orig := append([]byte(nil), plain...)
	if err := storage.WriteBlocks(c, 1, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, orig) {
		t.Fatal("WriteBlocks mutated the caller's buffer")
	}
}

func TestCryptDifferentKeysSeeGarbage(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	cA := NewCrypt(raw, newXTS(t, 4), nil)
	plain := bytes.Repeat([]byte{0x11}, blockSize)
	if err := storage.WriteBlocks(cA, 0, plain); err != nil {
		t.Fatal(err)
	}
	cB := NewCrypt(raw, newXTS(t, 5), nil)
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(cB, 0, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, plain) {
		t.Fatal("wrong key decrypted to original plaintext")
	}
}

func TestCryptSamePlaintextDifferentBlocksDiffers(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, newXTS(t, 6), nil)
	plain := bytes.Repeat([]byte{0x77}, blockSize)
	if err := storage.WriteBlocks(c, 0, plain); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(c, 1, plain); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, blockSize)
	b := make([]byte, blockSize)
	if err := storage.ReadBlocks(raw, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(raw, 1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("identical ciphertext at different blocks (watermarking risk)")
	}
}

func TestCryptChargesMeter(t *testing.T) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Profile{CryptBps: 1024 * 1024})
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, newXTS(t, 7), meter)
	buf := make([]byte, blockSize)
	if err := storage.WriteBlocks(c, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(c, 0, buf); err != nil {
		t.Fatal(err)
	}
	if meter.CryptoBytes() != 2*blockSize {
		t.Fatalf("CryptoBytes = %d, want %d", meter.CryptoBytes(), 2*blockSize)
	}
	if clock.Now() == 0 {
		t.Fatal("crypto cost not charged to clock")
	}
}

func TestCryptWithESSIV(t *testing.T) {
	key, err := prng.Bytes(prng.NewSeededEntropy(8), 32)
	if err != nil {
		t.Fatal(err)
	}
	essiv, err := xcrypto.NewESSIV(key)
	if err != nil {
		t.Fatal(err)
	}
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, essiv, nil)
	plain := make([]byte, blockSize)
	if _, err := prng.NewSource(1).Read(plain); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(c, 3, plain); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(c, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, got) {
		t.Fatal("ESSIV crypt roundtrip mismatch")
	}
}

func TestLinearRemaps(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 100)
	lin, err := NewLinear(raw, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lin.NumBlocks() != 10 {
		t.Fatalf("NumBlocks = %d", lin.NumBlocks())
	}
	buf := bytes.Repeat([]byte{9}, blockSize)
	if err := storage.WriteBlocks(lin, 3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := storage.ReadBlocks(raw, 43, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("linear target did not remap to parent offset")
	}
	if err := storage.ReadBlocks(lin, 10, got); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range read err = %v", err)
	}
}

func TestLinearRejectsBadRange(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 10)
	if _, err := NewLinear(raw, 8, 4); err == nil {
		t.Fatal("expected range error")
	}
}

func TestZeroDevice(t *testing.T) {
	z := NewZero(blockSize, 4)
	buf := bytes.Repeat([]byte{0xFF}, blockSize)
	if err := storage.WriteBlocks(z, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(z, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x after zero read", i, b)
		}
	}
	if err := storage.ReadBlocks(z, 4, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := storage.WriteBlocks(z, 0, buf[:10]); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("err = %v, want ErrBadBuffer", err)
	}
	if err := z.Sync(0); err != nil {
		t.Fatal(err)
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	var r Registry
	devA := storage.NewMemDevice(blockSize, 4)
	if err := r.Create("userdata", devA); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("userdata", devA); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
	got, err := r.Get("userdata")
	if err != nil {
		t.Fatal(err)
	}
	if got != storage.Device(devA) {
		t.Fatal("Get returned a different device")
	}
	if err := r.Create("cache", storage.NewMemDevice(blockSize, 4)); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "cache" || names[1] != "userdata" {
		t.Fatalf("Names = %v", names)
	}
	if err := r.Remove("userdata"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("userdata"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get removed err = %v, want ErrNotFound", err)
	}
	if err := r.Remove("userdata"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v, want ErrNotFound", err)
	}
	// Removed device must be closed.
	buf := make([]byte, blockSize)
	if err := storage.ReadBlocks(devA, 0, buf); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("read after Remove err = %v, want ErrClosed", err)
	}
}

// Property: stacking crypt over linear over a device preserves roundtrips at
// arbitrary offsets.
func TestPropertyCryptOverLinearRoundtrip(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 128)
	lin, err := NewLinear(raw, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCrypt(lin, newXTS(t, 10), nil)
	f := func(idxRaw uint16, seed uint64) bool {
		idx := uint64(idxRaw) % 64
		plain := make([]byte, blockSize)
		if _, err := prng.NewSource(seed).Read(plain); err != nil {
			return false
		}
		if err := storage.WriteBlocks(c, idx, plain); err != nil {
			return false
		}
		got := make([]byte, blockSize)
		if err := storage.ReadBlocks(c, idx, got); err != nil {
			return false
		}
		return bytes.Equal(plain, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCryptWrite4K(b *testing.B) {
	raw := storage.NewMemDevice(blockSize, 1024)
	key := make([]byte, 64)
	x, err := xcrypto.NewXTS(key)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCrypt(raw, x, nil)
	buf := make([]byte, blockSize)
	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := storage.WriteBlocks(c, uint64(i)%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
}
