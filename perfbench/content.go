package main

import "encoding/binary"

const blockSize = 4096

// Every block the benchmark writes carries content derived from the run
// seed, the block's identity and its write generation, so a read can be
// checked against exactly what was last written there. Generation 0 means
// "content unknown" (never written, or its last write failed) and is never
// checked.

// stampWord returns word i of the content of block blk at generation gen:
// the first two words are the identity in clear, the rest a splitmix64
// stream keyed by all three.
func stampWord(seed, blk uint64, gen uint32, i int) uint64 {
	switch i {
	case 0:
		return blk
	case 1:
		return uint64(gen)<<32 | uint64(uint32(seed))
	}
	x := seed ^ blk*0x9e3779b97f4a7c15 ^ uint64(gen)<<40 ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fillBlock writes the content of (blk, gen) into dst[:blockSize].
func fillBlock(dst []byte, seed, blk uint64, gen uint32) {
	for i := 0; i < blockSize/8; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], stampWord(seed, blk, gen, i))
	}
}

// checkBlock reports whether src[:blockSize] holds the content of
// (blk, gen).
func checkBlock(src []byte, seed, blk uint64, gen uint32) bool {
	for i := 0; i < blockSize/8; i++ {
		if binary.LittleEndian.Uint64(src[8*i:]) != stampWord(seed, blk, gen, i) {
			return false
		}
	}
	return true
}

// fillRun stamps len(dst)/blockSize consecutive blocks starting at blk,
// taking each block's generation from gens.
func fillRun(dst []byte, seed, blk uint64, gens []uint32) {
	for i := range gens {
		fillBlock(dst[i*blockSize:], seed, blk+uint64(i), gens[i])
	}
}

// checkRun verifies a run read back from blk against gens and returns the
// number of blocks that do not match. Blocks with generation 0 are skipped.
func checkRun(src []byte, seed, blk uint64, gens []uint32) int {
	bad := 0
	for i, g := range gens {
		if g != 0 && !checkBlock(src[i*blockSize:], seed, blk+uint64(i), g) {
			bad++
		}
	}
	return bad
}
