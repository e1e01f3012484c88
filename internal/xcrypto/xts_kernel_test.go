package xcrypto

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// xtsPaths returns the cipher for key on every path this build has: the
// AES-NI kernel where available, and always the generic per-block loop.
func xtsPaths(t testing.TB, key []byte) map[string]*XTS {
	t.Helper()
	x, err := NewXTS(key)
	if err != nil {
		t.Fatalf("NewXTS: %v", err)
	}
	paths := map[string]*XTS{"generic": genericXTS(x)}
	if x.kernel != nil {
		paths["kernel"] = x
	}
	return paths
}

// genericXTS returns a copy of x that always takes the per-block loop.
func genericXTS(x *XTS) *XTS {
	g := *x
	g.kernel = nil
	return &g
}

// checkXTSAgainstGeneric encrypts and decrypts src at sector with x and with
// the generic path, out of place and in place, and fails on any byte that
// differs or any round trip that does not return src.
func checkXTSAgainstGeneric(t testing.TB, x *XTS, sector uint64, src []byte) {
	t.Helper()
	ref := genericXTS(x)
	want := make([]byte, len(src))
	if err := ref.EncryptSector(sector, want, src); err != nil {
		t.Fatalf("generic encrypt: %v", err)
	}
	got := make([]byte, len(src))
	if err := x.EncryptSector(sector, got, src); err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("len %d sector %#x: ciphertext differs from generic path", len(src), sector)
	}
	inPlace := append([]byte(nil), src...)
	if err := x.EncryptSector(sector, inPlace, inPlace); err != nil {
		t.Fatalf("in-place encrypt: %v", err)
	}
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("len %d sector %#x: in-place ciphertext differs from generic path", len(src), sector)
	}
	if err := x.DecryptSector(sector, inPlace, inPlace); err != nil {
		t.Fatalf("in-place decrypt: %v", err)
	}
	if !bytes.Equal(inPlace, src) {
		t.Fatalf("len %d sector %#x: in-place round trip mismatch", len(src), sector)
	}
	if err := x.DecryptSector(sector, got, want); err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("len %d sector %#x: round trip mismatch", len(src), sector)
	}
	if err := ref.DecryptSector(sector, got, want); err != nil {
		t.Fatalf("generic decrypt: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("len %d sector %#x: generic round trip mismatch", len(src), sector)
	}
}

// TestXTSKernelMatchesGeneric checks the kernel against the per-block loop
// over both key sizes, every length from one block to two 4 KiB sectors
// (so every 8-block tail length), and edge and random sector numbers.
func TestXTSKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{32, 64} {
		key := make([]byte, keyLen)
		rng.Read(key)
		x, err := NewXTS(key)
		if err != nil {
			t.Fatal(err)
		}
		if x.kernel == nil {
			t.Skip("no XTS kernel in this build or on this CPU")
		}
		for n := 16; n <= 8192; n += 16 {
			src := make([]byte, n)
			rng.Read(src)
			for _, sector := range []uint64{0, math.MaxUint64, rng.Uint64()} {
				checkXTSAgainstGeneric(t, x, sector, src)
			}
		}
	}
}

func FuzzXTS(f *testing.F) {
	f.Add(make([]byte, 32), uint64(0), make([]byte, 16))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), uint64(math.MaxUint64), make([]byte, 4096))
	f.Add(bytes.Repeat([]byte{1}, 32), uint64(1<<40), bytes.Repeat([]byte{0xff}, 144))
	f.Fuzz(func(t *testing.T, key []byte, sector uint64, data []byte) {
		// Shape arbitrary input into a valid call: a 32- or 64-byte key and
		// a non-empty multiple of 16 bytes.
		k := make([]byte, 32)
		if len(key) >= 64 {
			k = make([]byte, 64)
		}
		copy(k, key)
		n := len(data) &^ 15
		if n == 0 {
			n = 16
		}
		src := make([]byte, n)
		copy(src, data)
		x, err := NewXTS(k)
		if err != nil {
			t.Fatal(err)
		}
		checkXTSAgainstGeneric(t, x, sector, src)
	})
}

func TestXTSSectorNoAllocs(t *testing.T) {
	for name, x := range xtsPaths(t, make([]byte, 32)) {
		buf := make([]byte, 4096)
		enc := testing.AllocsPerRun(100, func() { _ = x.EncryptSector(9, buf, buf) })
		dec := testing.AllocsPerRun(100, func() { _ = x.DecryptSector(9, buf, buf) })
		if enc != 0 || dec != 0 {
			t.Errorf("%s: EncryptSector %v allocs/op, DecryptSector %v allocs/op; want 0", name, enc, dec)
		}
	}
}

func benchmarkXTS4K(b *testing.B, encrypt bool) {
	key := make([]byte, 64)
	paths := xtsPaths(b, key)
	for _, name := range []string{"kernel", "generic"} {
		b.Run(name, func(b *testing.B) {
			x := paths[name]
			if x == nil {
				b.Skip("no XTS kernel in this build or on this CPU")
			}
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if encrypt {
					err = x.EncryptSector(uint64(i), buf, buf)
				} else {
					err = x.DecryptSector(uint64(i), buf, buf)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkXTSEncrypt4K(b *testing.B) { benchmarkXTS4K(b, true) }

func BenchmarkXTSDecrypt4K(b *testing.B) { benchmarkXTS4K(b, false) }
