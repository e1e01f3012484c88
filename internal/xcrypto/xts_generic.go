//go:build !amd64 || purego

package xcrypto

// xtsKernel stands in for the AES-NI kernel on builds without one:
// newXTSKernel always returns nil, so every sector takes the per-block loop
// in XTS.process.
type xtsKernel struct{}

func newXTSKernel([]byte) *xtsKernel { return nil }

func (*xtsKernel) process(*[16]byte, []byte, []byte, bool) {}
