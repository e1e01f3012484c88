package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// Footer constants. The crypto footer is the last 16 KB of the userdata
// partition, the location Android's cryptfs uses and which MobiCeal keeps
// (Fig. 3: metadata | data | encryption footer).
const (
	// FooterMagic identifies a MobiCeal/cryptfs footer.
	FooterMagic = 0xD0B5B1C4
	// FooterSize is the on-disk footer region size in bytes.
	FooterSize = 16 * 1024
	// MasterKeySize is the volume master key length (XTS-AES-256).
	MasterKeySize = 64
	// SaltSize is the PBKDF2 salt length.
	SaltSize = 16
	// DefaultKDFIter matches Android 4.x cryptfs (HMAC-SHA1, 2000 rounds).
	DefaultKDFIter = 2000

	footerHeaderLen = 4 + 2 + 2 + 4 + 4 + 4 + 4 + 64 + MasterKeySize + SaltSize + SaltSize
)

// Footer errors.
var (
	// ErrBadFooter reports a region that does not contain a valid footer.
	ErrBadFooter = errors.New("xcrypto: invalid crypto footer")
	// ErrFooterSpace reports a device too small to hold the footer.
	ErrFooterSpace = errors.New("xcrypto: device too small for crypto footer")
)

// Footer is the on-disk crypto footer. It stores the decoy master key
// encrypted under the decoy password. Deliberately, the wrapped key carries
// no integrity tag: decrypting it under *any* password yields a
// deterministic pseudorandom key, and MobiCeal uses exactly that to derive
// hidden-volume keys from hidden passwords without storing anything extra
// (Sec. V-B) — an adversary cannot tell from the footer how many passwords
// are meaningful.
type Footer struct {
	MajorVersion uint16
	MinorVersion uint16
	Flags        uint32
	KDFIter      uint32
	NumVolumes   uint32 // thin volumes in the pool (public knowledge)
	CryptoType   string // e.g. "aes-xts-plain64"
	WrappedKey   [MasterKeySize]byte
	KDFSalt      [SaltSize]byte // salt for key-encryption-key derivation
	PDESalt      [SaltSize]byte // salt for hidden-volume index derivation
}

// NewFooter generates a fresh footer and master key: a random
// MasterKeySize-byte master key wrapped under the decoy password. It returns
// the footer and the plaintext master key (the decoy key).
func NewFooter(ent prng.Entropy, decoyPassword string, numVolumes int, kdfIter int) (*Footer, []byte, error) {
	if kdfIter <= 0 {
		kdfIter = DefaultKDFIter
	}
	f := &Footer{
		MajorVersion: 1,
		MinorVersion: 2,
		KDFIter:      uint32(kdfIter),
		NumVolumes:   uint32(numVolumes),
		CryptoType:   "aes-xts-plain64",
	}
	if _, err := io.ReadFull(ent, f.KDFSalt[:]); err != nil {
		return nil, nil, fmt.Errorf("xcrypto: generating KDF salt: %w", err)
	}
	if _, err := io.ReadFull(ent, f.PDESalt[:]); err != nil {
		return nil, nil, fmt.Errorf("xcrypto: generating PDE salt: %w", err)
	}
	masterKey, err := prng.Bytes(ent, MasterKeySize)
	if err != nil {
		return nil, nil, fmt.Errorf("xcrypto: generating master key: %w", err)
	}
	wrapped, err := f.wrap(decoyPassword, masterKey, true)
	if err != nil {
		return nil, nil, err
	}
	copy(f.WrappedKey[:], wrapped)
	return f, masterKey, nil
}

// wrap runs the footer's key-wrapping transform: AES-256-CBC over the
// master key with key and IV derived from the password via PBKDF2.
func (f *Footer) wrap(password string, data []byte, encrypt bool) ([]byte, error) {
	derived := PBKDF2SHA1([]byte(password), f.KDFSalt[:], int(f.KDFIter), 48)
	block, err := aes.NewCipher(derived[:32])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: footer KEK cipher: %w", err)
	}
	out := make([]byte, len(data))
	if encrypt {
		cipher.NewCBCEncrypter(block, derived[32:48]).CryptBlocks(out, data)
	} else {
		cipher.NewCBCDecrypter(block, derived[32:48]).CryptBlocks(out, data)
	}
	return out, nil
}

// DeriveKey unwraps the footer ciphertext under password. For the password
// that created the footer this returns the decoy master key; for any other
// password it returns a deterministic pseudorandom key, which MobiCeal uses
// as that password's hidden-volume key. There is deliberately no way to
// tell the two cases apart from the result.
func (f *Footer) DeriveKey(password string) ([]byte, error) {
	return f.wrap(password, f.WrappedKey[:], false)
}

// HiddenIndex derives the hidden-volume index for a hidden password:
// k = (H(pwd||salt) mod (n-1)) + 2, with H = PBKDF2 (paper Sec. IV-C).
// Volumes are numbered 1..n with V1 public, so k is in [2, n].
func (f *Footer) HiddenIndex(password string) int {
	n := int(f.NumVolumes)
	if n <= 1 {
		return 0
	}
	h := PBKDF2SHA1([]byte(password), f.PDESalt[:], int(f.KDFIter), 8)
	v := binary.BigEndian.Uint64(h)
	return int(v%uint64(n-1)) + 2
}

// Marshal serializes the footer into a FooterSize-byte region; bytes past
// the structured header are zero (Android reserves them similarly).
func (f *Footer) Marshal() []byte {
	out := make([]byte, FooterSize)
	b := out
	binary.LittleEndian.PutUint32(b, FooterMagic)
	binary.LittleEndian.PutUint16(b[4:], f.MajorVersion)
	binary.LittleEndian.PutUint16(b[6:], f.MinorVersion)
	binary.LittleEndian.PutUint32(b[8:], f.Flags)
	binary.LittleEndian.PutUint32(b[12:], f.KDFIter)
	binary.LittleEndian.PutUint32(b[16:], f.NumVolumes)
	binary.LittleEndian.PutUint32(b[20:], MasterKeySize)
	var ct [64]byte
	copy(ct[:], f.CryptoType)
	copy(b[24:], ct[:])
	copy(b[88:], f.WrappedKey[:])
	copy(b[88+MasterKeySize:], f.KDFSalt[:])
	copy(b[88+MasterKeySize+SaltSize:], f.PDESalt[:])
	return out
}

// UnmarshalFooter parses a footer region produced by Marshal. Any region
// it accepts re-marshals to the same header bytes.
func UnmarshalFooter(data []byte) (*Footer, error) {
	if len(data) < footerHeaderLen {
		return nil, fmt.Errorf("%w: region too short (%d bytes)", ErrBadFooter, len(data))
	}
	if binary.LittleEndian.Uint32(data) != FooterMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadFooter, binary.LittleEndian.Uint32(data))
	}
	f := &Footer{
		MajorVersion: binary.LittleEndian.Uint16(data[4:]),
		MinorVersion: binary.LittleEndian.Uint16(data[6:]),
		Flags:        binary.LittleEndian.Uint32(data[8:]),
		KDFIter:      binary.LittleEndian.Uint32(data[12:]),
		NumVolumes:   binary.LittleEndian.Uint32(data[16:]),
	}
	if keySize := binary.LittleEndian.Uint32(data[20:]); keySize != MasterKeySize {
		return nil, fmt.Errorf("%w: unsupported key size %d", ErrBadFooter, keySize)
	}
	ct := data[24:88]
	end := bytes.IndexByte(ct, 0)
	if end < 0 {
		end = len(ct)
	}
	if len(bytes.TrimRight(ct[end:], "\x00")) != 0 {
		return nil, fmt.Errorf("%w: crypto type not NUL-padded", ErrBadFooter)
	}
	f.CryptoType = string(ct[:end])
	copy(f.WrappedKey[:], data[88:])
	copy(f.KDFSalt[:], data[88+MasterKeySize:])
	copy(f.PDESalt[:], data[88+MasterKeySize+SaltSize:])
	return f, nil
}

// FooterBlocks returns how many blocks of size blockSize the footer region
// occupies.
func FooterBlocks(blockSize int) uint64 {
	return uint64((FooterSize + blockSize - 1) / blockSize)
}

// WriteFooter stores the footer in the last FooterSize bytes of dev.
func WriteFooter(dev storage.Device, f *Footer) error {
	nb := FooterBlocks(dev.BlockSize())
	if dev.NumBlocks() < nb {
		return fmt.Errorf("%w: %d blocks", ErrFooterSpace, dev.NumBlocks())
	}
	data := f.Marshal()
	// Pad the marshaled region up to whole blocks.
	padded := make([]byte, int(nb)*dev.BlockSize())
	copy(padded, data)
	start := dev.NumBlocks() - nb
	if err := storage.WriteBlocks(dev, start, padded); err != nil {
		return fmt.Errorf("xcrypto: writing footer: %w", err)
	}
	return nil
}

// ReadFooter loads the footer from the last FooterSize bytes of dev.
func ReadFooter(dev storage.Device) (*Footer, error) {
	nb := FooterBlocks(dev.BlockSize())
	if dev.NumBlocks() < nb {
		return nil, fmt.Errorf("%w: %d blocks", ErrFooterSpace, dev.NumBlocks())
	}
	start := dev.NumBlocks() - nb
	data, err := storage.ReadFull(dev, start, nb)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: reading footer: %w", err)
	}
	return UnmarshalFooter(data)
}
