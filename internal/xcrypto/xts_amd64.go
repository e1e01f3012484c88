//go:build amd64 && !purego

package xcrypto

// hasAESNI reports CPUID leaf 1, ECX bit 25: the CPU has the AES-NI
// instructions the kernel in xts_amd64.s is built from.
var hasAESNI = cpuid1ECX()&(1<<25) != 0

// xtsKernel holds the data-key round keys for the AES-NI XTS kernel. The
// kernel runs eight blocks through each AES round together, so a sector
// pays the AES-NI round latency once per eight blocks instead of once per
// block as a cipher.Block call does.
type xtsKernel struct {
	nr       int // AES rounds: 10 for a 16-byte key, 14 for a 32-byte key
	enc, dec [60]uint32
}

// newXTSKernel expands the data-cipher key, or returns nil when the CPU
// lacks AES-NI.
func newXTSKernel(dataKey []byte) *xtsKernel {
	if !hasAESNI {
		return nil
	}
	k := &xtsKernel{nr: 6 + len(dataKey)/4}
	expandKeyAsm(k.nr, &dataKey[0], &k.enc[0], &k.dec[0])
	return k
}

// process runs XTS over dst/src (equal, non-zero multiples of 16 bytes)
// starting from the encrypted sector tweak.
func (k *xtsKernel) process(tweak *[16]byte, dst, src []byte, encrypt bool) {
	if encrypt {
		xtsEncBlocks(k.nr, &k.enc[0], &dst[0], &src[0], &tweak[0], len(src)/16)
	} else {
		xtsDecBlocks(k.nr, &k.dec[0], &dst[0], &src[0], &tweak[0], len(src)/16)
	}
}

func cpuid1ECX() uint32

//go:noescape
func expandKeyAsm(nr int, key *byte, enc *uint32, dec *uint32)

//go:noescape
func xtsEncBlocks(nr int, xk *uint32, dst *byte, src *byte, tweak *byte, n int)

//go:noescape
func xtsDecBlocks(nr int, xk *uint32, dst *byte, src *byte, tweak *byte, n int)
