// AES-NI XTS kernel: AES-128/256 key expansion and 8-block interleaved
// XTS encryption and decryption.
//
// expandKeyAsm is adapted from Go's crypto/internal/fips140/aes/aes_amd64.s
// (AES-192 removed), which carries this notice:
//
// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build !purego

#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func expandKeyAsm(nr int, key *byte, enc *uint32, dec *uint32)
//
// Writes the nr+1 encryption round keys to enc and the matching
// equivalent-inverse-cipher schedule (AESIMC of the middle keys, in
// reverse order) to dec. nr is 10 (AES-128) or 14 (AES-256).
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-32
	MOVQ   nr+0(FP), CX
	MOVQ   key+8(FP), AX
	MOVQ   enc+16(FP), BX
	MOVQ   dec+24(FP), DX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	PXOR   X4, X4
	CMPL   CX, $0x0a
	JE     exp_enc128

	MOVUPS          16(AX), X2
	MOVUPS          X2, (BX)
	ADDQ            $0x10, BX
	AESKEYGENASSIST $0x01, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x02, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x04, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x08, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x10, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x20, X2, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expand_key_256b<>(SB)
	AESKEYGENASSIST $0x40, X2, X1
	CALL            expand_key_128<>(SB)
	JMP             exp_dec

exp_enc128:
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x40, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x80, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x1b, X0, X1
	CALL            expand_key_128<>(SB)
	AESKEYGENASSIST $0x36, X0, X1
	CALL            expand_key_128<>(SB)

exp_dec:
	SUBQ   $0x10, BX
	MOVUPS (BX), X1
	MOVUPS X1, (DX)
	DECQ   CX

exp_dec_loop:
	MOVUPS -16(BX), X1
	AESIMC X1, X0
	MOVUPS X0, 16(DX)
	SUBQ   $0x10, BX
	ADDQ   $0x10, DX
	DECQ   CX
	JNZ    exp_dec_loop
	MOVUPS -16(BX), X0
	MOVUPS X0, 16(DX)
	RET

// Also the first half of each AES-256 step.
TEXT expand_key_128<>(SB), NOSPLIT, $0
	PSHUFD $0xff, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	RET

TEXT expand_key_256b<>(SB), NOSPLIT, $0
	PSHUFD $0xaa, X1, X1
	SHUFPS $0x10, X2, X4
	PXOR   X4, X2
	SHUFPS $0x8c, X2, X4
	PXOR   X4, X2
	PXOR   X1, X2
	MOVUPS X2, (BX)
	ADDQ   $0x10, BX
	RET

// Reduction mask for the GF(2^128) doubling: 0x87 into the low byte when
// bit 127 carries out, 1 into bit 64 when bit 63 carries across the lanes.
DATA xtsMask<>+0(SB)/8, $0x0000000000000087
DATA xtsMask<>+8(SB)/8, $0x0000000000000001
GLOBL xtsMask<>(SB), RODATA|NOPTR, $16

// Register use in both kernels:
//   X0-X7  the eight blocks in flight
//   X8     the tweak of the next block
//   X9     scratch
//   X10    xtsMask
//   X11    the current round key
//   X12    round key 0
//   AX     round keys, R8 the last round key, R9 the round cursor
//   SI/DI  src/dst, BX blocks left

// TWEAK_DOUBLE multiplies the tweak in X8 by alpha (IEEE 1619, little-endian
// bit order): both 64-bit lanes shift left by one, and the bits shifted out
// of each lane come back through xtsMask.
#define TWEAK_DOUBLE \
	PSHUFD $0x13, X8, X9; \
	PADDQ  X8, X8; \
	PSRAL  $31, X9; \
	PAND   X10, X9; \
	PXOR   X9, X8

// LOAD_BLOCK whitens one block with its tweak and round key 0. The tweak is
// parked in the block's dst slot until the block is stored; src is read
// first, so dst may alias src.
#define LOAD_BLOCK(off, X) \
	MOVUPS off(SI), X; \
	MOVUPS X8, off(DI); \
	PXOR   X8, X; \
	PXOR   X12, X; \
	TWEAK_DOUBLE

// STORE_BLOCK XORs the parked tweak back in and stores the block.
#define STORE_BLOCK(off, X) \
	MOVUPS off(DI), X9; \
	PXOR   X9, X; \
	MOVUPS X, off(DI)

#define LOAD8 \
	LOAD_BLOCK(0, X0); \
	LOAD_BLOCK(16, X1); \
	LOAD_BLOCK(32, X2); \
	LOAD_BLOCK(48, X3); \
	LOAD_BLOCK(64, X4); \
	LOAD_BLOCK(80, X5); \
	LOAD_BLOCK(96, X6); \
	LOAD_BLOCK(112, X7)

#define STORE8 \
	STORE_BLOCK(0, X0); \
	STORE_BLOCK(16, X1); \
	STORE_BLOCK(32, X2); \
	STORE_BLOCK(48, X3); \
	STORE_BLOCK(64, X4); \
	STORE_BLOCK(80, X5); \
	STORE_BLOCK(96, X6); \
	STORE_BLOCK(112, X7)

#define ROUND8(OP) \
	OP X11, X0; \
	OP X11, X1; \
	OP X11, X2; \
	OP X11, X3; \
	OP X11, X4; \
	OP X11, X5; \
	OP X11, X6; \
	OP X11, X7

#define XTS_PROLOGUE \
	MOVQ   nr+0(FP), CX; \
	MOVQ   xk+8(FP), AX; \
	MOVQ   dst+16(FP), DI; \
	MOVQ   src+24(FP), SI; \
	MOVQ   tweak+32(FP), DX; \
	MOVQ   n+40(FP), BX; \
	MOVUPS (DX), X8; \
	MOVUPS xtsMask<>(SB), X10; \
	MOVUPS (AX), X12; \
	MOVQ   CX, R8; \
	SHLQ   $4, R8; \
	ADDQ   AX, R8

// XTS_BODY runs the 8-block loop and then the 1-block tail, with OP and
// LAST the AES middle and final round instructions.
#define XTS_BODY(OP, LAST, loop8, rounds8, tail, loop1, rounds1, done) \
	CMPQ   BX, $8; \
	JB     tail; \
loop8: \
	LOAD8; \
	LEAQ   16(AX), R9; \
rounds8: \
	MOVUPS (R9), X11; \
	ROUND8(OP); \
	ADDQ   $16, R9; \
	CMPQ   R9, R8; \
	JB     rounds8; \
	MOVUPS (R8), X11; \
	ROUND8(LAST); \
	STORE8; \
	ADDQ   $128, SI; \
	ADDQ   $128, DI; \
	SUBQ   $8, BX; \
	CMPQ   BX, $8; \
	JAE    loop8; \
tail: \
	TESTQ  BX, BX; \
	JZ     done; \
loop1: \
	MOVUPS (SI), X0; \
	PXOR   X8, X0; \
	PXOR   X12, X0; \
	LEAQ   16(AX), R9; \
rounds1: \
	MOVUPS (R9), X11; \
	OP     X11, X0; \
	ADDQ   $16, R9; \
	CMPQ   R9, R8; \
	JB     rounds1; \
	MOVUPS (R8), X11; \
	LAST   X11, X0; \
	PXOR   X8, X0; \
	MOVUPS X0, (DI); \
	TWEAK_DOUBLE; \
	ADDQ   $16, SI; \
	ADDQ   $16, DI; \
	DECQ   BX; \
	JNZ    loop1; \
done: \
	RET

// func xtsEncBlocks(nr int, xk *uint32, dst *byte, src *byte, tweak *byte, n int)
//
// Encrypts n 16-byte blocks from src into dst under the encryption schedule
// xk, starting with the (already encrypted) tweak at *tweak.
TEXT ·xtsEncBlocks(SB), NOSPLIT, $0-48
	XTS_PROLOGUE
	XTS_BODY(AESENC, AESENCLAST, enc_loop8, enc_rounds8, enc_tail, enc_loop1, enc_rounds1, enc_done)

// func xtsDecBlocks(nr int, xk *uint32, dst *byte, src *byte, tweak *byte, n int)
//
// The inverse of xtsEncBlocks under the decryption schedule xk.
TEXT ·xtsDecBlocks(SB), NOSPLIT, $0-48
	XTS_PROLOGUE
	XTS_BODY(AESDEC, AESDECLAST, dec_loop8, dec_rounds8, dec_tail, dec_loop1, dec_rounds1, dec_done)
