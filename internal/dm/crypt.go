package dm

import (
	"fmt"

	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// Crypt is the dm-crypt target: a transparent encrypted view of an
// underlying device. Block index doubles as the cipher sector number
// ("plain64" IV convention at block granularity). Every volume in MobiCeal
// — public, hidden — is a Crypt over a thin volume; Android FDE is a Crypt
// over the raw partition.
type Crypt struct {
	inner  storage.Device
	cipher xcrypto.SectorCipher
	meter  *vclock.Meter
	// scratch holds reusable ciphertext buffers (the target's mempool in
	// kernel terms), so the write path does not allocate per request.
	scratch storage.BufPool
}

// NewCrypt layers cipher over inner. meter may be nil; when set, crypto
// work and target traversal are charged to it so experiments account for
// encryption cost the way the paper's testbed pays it.
func NewCrypt(inner storage.Device, cipher xcrypto.SectorCipher, meter *vclock.Meter) *Crypt {
	return &Crypt{inner: inner, cipher: cipher, meter: meter}
}

// BlockSize implements storage.Device.
func (c *Crypt) BlockSize() int { return c.inner.BlockSize() }

// NumBlocks implements storage.Device.
func (c *Crypt) NumBlocks() uint64 { return c.inner.NumBlocks() }

// ReadVec implements storage.Device: one scatter-gather ciphertext read
// straight into the caller's segments, then per-sector decryption in place
// — no intermediate buffer at all on the read path. Virtual-clock charges
// are per block, so the paper-calibrated testbed numbers do not depend on
// how a request was merged or segmented.
func (c *Crypt) ReadVec(fid, start uint64, v storage.BlockVec) error {
	bs := c.inner.BlockSize()
	if v.BlockSize() != bs && v.Segments() > 0 {
		return storage.ErrBadBuffer
	}
	if err := c.inner.ReadVec(fid, start, v); err != nil {
		return err
	}
	err := v.EachBlock(func(i int, blk []byte) error {
		idx := start + uint64(i)
		if err := c.cipher.DecryptSector(idx, blk, blk); err != nil {
			return fmt.Errorf("dm: decrypting block %d: %w", idx, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if c.meter != nil {
		c.meter.ChargeCrypto(v.Bytes())
		for i, n := 0, v.Len(); i < n; i++ {
			c.meter.ChargeTraversalRead()
		}
	}
	return nil
}

// WriteVec implements storage.Device: the plaintext segments are encrypted
// into one pooled ciphertext buffer, carved into segments of the same
// sizes, and the ciphertext vec goes down as one scatter-gather write — so
// the inner device (a thin volume) sees the original segmentation. The
// caller's buffers are never modified.
func (c *Crypt) WriteVec(fid, start uint64, v storage.BlockVec) error {
	bs := c.inner.BlockSize()
	if v.BlockSize() != bs && v.Segments() > 0 {
		return storage.ErrBadBuffer
	}
	if v.Segments() == 0 {
		return nil
	}
	buf := c.scratch.Get(v.Bytes())
	defer c.scratch.Put(buf)
	ct := storage.Vec(bs)
	err := v.Range(func(off int, seg []byte) error {
		ctSeg := buf[off*bs : off*bs+len(seg)]
		ct = ct.Append(ctSeg)
		for i := 0; i*bs < len(seg); i++ {
			idx := start + uint64(off+i)
			if err := c.cipher.EncryptSector(idx, ctSeg[i*bs:(i+1)*bs], seg[i*bs:(i+1)*bs]); err != nil {
				return fmt.Errorf("dm: encrypting block %d: %w", idx, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := c.inner.WriteVec(fid, start, ct); err != nil {
		return err
	}
	if c.meter != nil {
		c.meter.ChargeCrypto(v.Bytes())
		n := v.Len()
		for i := 0; i < n; i++ {
			c.meter.ChargeTraversalWrite()
		}
	}
	return nil
}

// Discard implements storage.Device: a discard carries no data to encrypt,
// so it passes straight through to the inner device (dm-crypt likewise
// forwards discards when allow_discards is set). The security note from
// the kernel applies here too — discard patterns are visible to an
// adversary below the crypt layer — which is exactly MobiCeal's threat
// model: block-level allocation state is public, and deniability rests on
// dummy writes, not on hiding discards.
func (c *Crypt) Discard(fid, start, count uint64) error {
	if c.meter != nil {
		// Per-block traversal charges, like the read/write paths: the
		// virtual-clock cost must not depend on how a scheduler happened
		// to merge the range. A discard carries no payload to encrypt.
		for i := uint64(0); i < count; i++ {
			c.meter.ChargeTraversalWrite()
		}
	}
	return c.inner.Discard(fid, start, count)
}

// Sync implements storage.Device: the id rides the barrier down to the
// thin pool's group-commit door.
func (c *Crypt) Sync(fid uint64) error { return c.inner.Sync(fid) }

// Close implements storage.Device. Closing the crypt view does not close
// the underlying device: tearing down a dm device leaves the partition.
func (c *Crypt) Close() error { return nil }
