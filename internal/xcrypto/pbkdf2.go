// Package xcrypto implements the cryptographic substrate of the MobiCeal
// reproduction: PBKDF2 (RFC 2898), AES-XTS and AES-CBC-ESSIV sector ciphers
// (the dm-crypt modes), the discarded-key noise generator used by dummy
// writes, and the Android-style crypto footer with MobiCeal's key-derivation
// trick (decrypting the same footer ciphertext under different passwords
// yields the decoy key or a hidden key, so hidden keys occupy no extra
// space — paper Sec. V-B).
//
// The module is offline and stdlib-only, so PBKDF2 and XTS are implemented
// here from their specifications rather than imported from golang.org/x.
package xcrypto

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
)

// PBKDF2Key derives a key of keyLen bytes from password and salt using
// PBKDF2 (RFC 2898) with iter iterations of HMAC-h.
//
// Android's cryptfs derives its key-encryption key this way (historically
// PBKDF2-SHA1 with 2000 iterations); MobiCeal additionally uses PBKDF2 to
// derive the hidden-volume index k = (H(pwd||salt) mod (n-1)) + 2
// (Sec. IV-C).
//
// The output blocks T_1..T_n are independent, so all but the last are
// derived on their own goroutines: the 48-byte footer key-encryption key
// is three HMAC-SHA1 chains, and this is the dominant cost of setting up
// and opening a device.
func PBKDF2Key(password, salt []byte, iter, keyLen int, h func() hash.Hash) []byte {
	hashLen := h().Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen
	dk := make([]byte, numBlocks*hashLen)
	var wg sync.WaitGroup
	for block := 1; block <= numBlocks; block++ {
		t := dk[(block-1)*hashLen : block*hashLen]
		if block == numBlocks {
			pbkdf2Block(t, password, salt, iter, block, h)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pbkdf2Block(t, password, salt, iter, block, h)
		}()
	}
	wg.Wait()
	return dk[:keyLen]
}

// pbkdf2Block computes output block T_block into t.
func pbkdf2Block(t, password, salt []byte, iter, block int, h func() hash.Hash) {
	prf := hmac.New(h, password)
	// U_1 = PRF(password, salt || INT(block))
	var buf [4]byte
	prf.Write(salt)
	binary.BigEndian.PutUint32(buf[:], uint32(block))
	prf.Write(buf[:])
	u := prf.Sum(nil)
	copy(t, u)
	// U_i = PRF(password, U_{i-1}); T = U_1 ^ ... ^ U_c
	for i := 2; i <= iter; i++ {
		prf.Reset()
		prf.Write(u)
		u = prf.Sum(u[:0])
		for x := range t {
			t[x] ^= u[x]
		}
	}
}

// PBKDF2SHA1 derives a key with HMAC-SHA1, the Android 4.x cryptfs default.
func PBKDF2SHA1(password, salt []byte, iter, keyLen int) []byte {
	return PBKDF2Key(password, salt, iter, keyLen, sha1.New)
}

// PBKDF2SHA256 derives a key with HMAC-SHA256.
func PBKDF2SHA256(password, salt []byte, iter, keyLen int) []byte {
	return PBKDF2Key(password, salt, iter, keyLen, sha256.New)
}
