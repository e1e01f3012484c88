// Package adversary implements the paper's threat model (Sec. III-A): a
// computationally bounded multi-snapshot adversary with full knowledge of
// the design who images the block device at different points of time, reads
// the (plaintext) pool metadata, and correlates snapshots to compromise
// deniability. The package provides the concrete attacks the paper
// discusses — unaccountable-change detection (which defeats hidden-volume
// schemes like MobiPluto), sequential-layout run analysis (which would
// defeat MobiCeal without random allocation), dummy-count bounds
// (Sec. IV-B's "maximal number of blocks" discussion) — plus statistical
// randomness tests and an empirical version of the Sec. III-C security
// game.
package adversary

import (
	"bytes"
	"math"

	"mobiceal/internal/storage"
)

// MonobitZ returns the monobit test z-score of data: the normalized
// deviation of the ones-count from half the bits. |z| < ~4 is consistent
// with uniform randomness for the block sizes used here.
func MonobitZ(data []byte) float64 {
	ones := 0
	for _, b := range data {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ones++
			}
		}
	}
	n := float64(len(data) * 8)
	if n == 0 {
		return 0
	}
	return (float64(ones) - n/2) / math.Sqrt(n/4)
}

// ChiSquareBytes returns the chi-square statistic of data's byte histogram
// against the uniform distribution (255 degrees of freedom). For uniform
// data the statistic concentrates around 255 with standard deviation ~22.6.
func ChiSquareBytes(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	expected := float64(len(data)) / 256
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// LooksRandom reports whether data passes both the monobit and chi-square
// tests at a ~5-sigma significance — the cheap forensic check an adversary
// runs to classify a block as ciphertext/noise versus structured plaintext.
func LooksRandom(data []byte) bool {
	if math.Abs(MonobitZ(data)) > 5 {
		return false
	}
	chi := ChiSquareBytes(data)
	// df = 255: mean 255, sigma = sqrt(2*255) ~ 22.6; 5 sigma ~ 113.
	return math.Abs(chi-255) < 5*math.Sqrt(2*255)
}

// FindSignature scans every block of a snapshot for a plaintext byte
// pattern — the carving pass (file magic numbers, known document fragments)
// of the paper's "advanced computer forensics on the disk image" (Sec.
// III-A). It returns the block indexes containing the pattern. On a healthy
// PDE device this finds nothing: every byte at rest is ciphertext, noise or
// plaintext *metadata* the user can account for.
func FindSignature(snap *storage.Snapshot, pattern []byte) []uint64 {
	if len(pattern) == 0 {
		return nil
	}
	var hits []uint64
	buf := make([]byte, snap.BlockSize())
	for idx := uint64(0); idx < snap.NumBlocks(); idx++ {
		if err := storage.ReadBlocks(snap, idx, buf); err != nil {
			continue
		}
		if bytes.Contains(buf, pattern) {
			hits = append(hits, idx)
		}
	}
	return hits
}
