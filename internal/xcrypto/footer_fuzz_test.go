package xcrypto

import (
	"bytes"
	"testing"

	"mobiceal/internal/storage"
)

// FuzzFooter feeds arbitrary bytes to the footer parser, directly and
// through ReadFooter over a device holding them as its footer region. The
// contract: a clean error, or a footer that re-marshals to the same header
// bytes — never a panic. An adversary holding the raw image controls every
// footer byte, so a malformed footer is in the threat model.
func FuzzFooter(f *testing.F) {
	valid := (&Footer{
		MajorVersion: 1,
		MinorVersion: 2,
		KDFIter:      DefaultKDFIter,
		NumVolumes:   8,
		CryptoType:   "aes-xts-plain64",
	}).Marshal()
	f.Add(valid[:footerHeaderLen])
	f.Add(valid[:footerHeaderLen-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := UnmarshalFooter(data)
		if err == nil {
			if got := ft.Marshal()[:footerHeaderLen]; !bytes.Equal(got, data[:footerHeaderLen]) {
				t.Fatalf("accepted header re-marshals differently:\n got %x\nwant %x", got, data[:footerHeaderLen])
			}
		}

		// The same bytes as the footer region of a device: ReadFooter must
		// agree with the parser over the zero-padded region.
		const bs = 512
		region := make([]byte, FooterBlocks(bs)*bs)
		copy(region, data)
		dev := storage.NewMemDevice(bs, FooterBlocks(bs)+1)
		if err := storage.WriteBlocks(dev, 1, region); err != nil {
			t.Fatal(err)
		}
		fromDev, derr := ReadFooter(dev)
		want, werr := UnmarshalFooter(region)
		if (derr == nil) != (werr == nil) {
			t.Fatalf("ReadFooter err %v, UnmarshalFooter err %v", derr, werr)
		}
		if derr == nil && *fromDev != *want {
			t.Fatalf("ReadFooter %+v, UnmarshalFooter %+v", fromDev, want)
		}
	})
}
