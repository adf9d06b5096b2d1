//go:build !race

#include "textflag.h"

// rollLanes<> holds 0–7, the lane offsets of a group of eight pres.
DATA rollLanes<>+0(SB)/8, $0
DATA rollLanes<>+8(SB)/8, $1
DATA rollLanes<>+16(SB)/8, $2
DATA rollLanes<>+24(SB)/8, $3
DATA rollLanes<>+32(SB)/8, $4
DATA rollLanes<>+40(SB)/8, $5
DATA rollLanes<>+48(SB)/8, $6
DATA rollLanes<>+56(SB)/8, $7
GLOBL rollLanes<>(SB), RODATA, $64

// A quad pass runs eight independent hash chains, x in Z0–Z7, each with
// its scratch t in Z8–Z15, one instruction of every chain after another,
// so that each VPMULLQ's latency hides behind the other seven chains.
// ALL8 applies op with source s to every chain in place (x = x op s),
// TMP8 to every chain into its scratch (t = x op s), FOLD8 folds every
// scratch back into its chain (x = x op t).
#define ALL8(op, s) \
	op s, Z0, Z0; op s, Z1, Z1; op s, Z2, Z2; op s, Z3, Z3 \
	op s, Z4, Z4; op s, Z5, Z5; op s, Z6, Z6; op s, Z7, Z7

#define TMP8(op, s) \
	op s, Z0, Z8; op s, Z1, Z9; op s, Z2, Z10; op s, Z3, Z11 \
	op s, Z4, Z12; op s, Z5, Z13; op s, Z6, Z14; op s, Z7, Z15

#define FOLD8(op) \
	op Z8, Z0, Z0; op Z9, Z1, Z1; op Z10, Z2, Z2; op Z11, Z3, Z3 \
	op Z12, Z4, Z4; op Z13, Z5, Z5; op Z14, Z6, Z6; op Z15, Z7, Z7

// SPLITMIX8 is rng.SplitMix64 on every lane of the eight chains: add the
// golden gamma (Z16), then xor-shift 30, multiply by Z17, xor-shift 27,
// multiply by Z18, xor-shift 31.
#define SPLITMIX8 \
	ALL8(VPADDQ, Z16)   \
	TMP8(VPSRLQ, $30)   \
	FOLD8(VPXORQ)       \
	ALL8(VPMULLQ, Z17)  \
	TMP8(VPSRLQ, $27)   \
	FOLD8(VPXORQ)       \
	ALL8(VPMULLQ, Z18)  \
	TMP8(VPSRLQ, $31)   \
	FOLD8(VPXORQ)

// SPLITMIX(x) is SPLITMIX8 on the one chain x, with Z31 as its scratch.
#define SPLITMIX(x) \
	VPADDQ  Z16, x, x   \
	VPSRLQ  $30, x, Z31 \
	VPXORQ  Z31, x, x   \
	VPMULLQ Z17, x, x   \
	VPSRLQ  $27, x, Z31 \
	VPXORQ  Z31, x, x   \
	VPMULLQ Z18, x, x   \
	VPSRLQ  $31, x, Z31 \
	VPXORQ  Z31, x, x

// MIXPOST(x, t) is HashMix(x, post) up to its SplitMix64 round:
// x ^= post + golden + x<<6 + x>>2, with Z19 holding post + golden, t and
// Z31 as scratch.
#define MIXPOST(x, t) \
	VPSLLQ $6, x, t     \
	VPADDQ Z19, t, t    \
	VPSRLQ $2, x, Z31   \
	VPADDQ Z31, t, t    \
	VPXORQ t, x, x

// MIXPRE(x, pre, key, add) is HashMix(key, pre) up to its SplitMix64
// round, add holding key's part golden + key<<6 + key>>2.
#define MIXPRE(x, pre, key, add) \
	VPADDQ pre, add, x \
	VPXORQ key, x, x

// func rollDrawsAVX512(hPot, hDep, post, lo uint64, pot, dep []uint64)
//
// Fills pot[i] and dep[i], for i < len(pot) &^ 7, with the draws of pre
// lo+i under hPot and hDep: HashFin(HashMix(HashMix(h, pre), post)) >> 11.
// dep must be at least as long as pot.
//
// Registers: SI and DI the next pot and dep draws, CX the groups of eight
// left. Z16–Z18 hold the SplitMix64 constants, Z19 post plus the golden
// gamma, Z20/Z21 hPot and its HashMix part golden + hPot<<6 + hPot>>2,
// Z22/Z23 the same for hDep, Z24 the next group's pres and Z25 eight in
// every lane. A quad pass takes four groups (32 pres, pres in Z24 and
// Z26–Z28) while four remain, then a single pass takes one group (two
// chains, Z0 and Z4).
TEXT ·rollDrawsAVX512(SB), NOSPLIT, $0-80
	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z16
	MOVQ         $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z17
	MOVQ         $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z18
	MOVQ         post+16(FP), BX
	ADDQ         AX, BX
	VPBROADCASTQ BX, Z19

	MOVQ         hPot+0(FP), BX
	VPBROADCASTQ BX, Z20
	MOVQ         BX, DX
	SHLQ         $6, DX
	SHRQ         $2, BX
	ADDQ         DX, BX
	ADDQ         AX, BX
	VPBROADCASTQ BX, Z21

	MOVQ         hDep+8(FP), BX
	VPBROADCASTQ BX, Z22
	MOVQ         BX, DX
	SHLQ         $6, DX
	SHRQ         $2, BX
	ADDQ         DX, BX
	ADDQ         AX, BX
	VPBROADCASTQ BX, Z23

	MOVQ         lo+24(FP), BX
	VPBROADCASTQ BX, Z24
	VPADDQ       rollLanes<>(SB), Z24, Z24
	MOVQ         $8, BX
	VPBROADCASTQ BX, Z25

	MOVQ pot_base+32(FP), SI
	MOVQ dep_base+56(FP), DI
	MOVQ pot_len+40(FP), CX
	SHRQ $3, CX

quad:
	CMPQ   CX, $4
	JB     single
	VPADDQ Z25, Z24, Z26
	VPADDQ Z25, Z26, Z27
	VPADDQ Z25, Z27, Z28
	MIXPRE(Z0, Z24, Z20, Z21)
	MIXPRE(Z1, Z26, Z20, Z21)
	MIXPRE(Z2, Z27, Z20, Z21)
	MIXPRE(Z3, Z28, Z20, Z21)
	MIXPRE(Z4, Z24, Z22, Z23)
	MIXPRE(Z5, Z26, Z22, Z23)
	MIXPRE(Z6, Z27, Z22, Z23)
	MIXPRE(Z7, Z28, Z22, Z23)
	SPLITMIX8
	MIXPOST(Z0, Z8)
	MIXPOST(Z1, Z9)
	MIXPOST(Z2, Z10)
	MIXPOST(Z3, Z11)
	MIXPOST(Z4, Z12)
	MIXPOST(Z5, Z13)
	MIXPOST(Z6, Z14)
	MIXPOST(Z7, Z15)
	SPLITMIX8
	SPLITMIX8
	ALL8(VPSRLQ, $11)
	VPADDQ    Z25, Z28, Z24
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, 64(SI)
	VMOVDQU64 Z2, 128(SI)
	VMOVDQU64 Z3, 192(SI)
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $4, CX
	JMP       quad

single:
	TESTQ     CX, CX
	JZ        done
	MIXPRE(Z0, Z24, Z20, Z21)
	MIXPRE(Z4, Z24, Z22, Z23)
	SPLITMIX(Z0)
	SPLITMIX(Z4)
	MIXPOST(Z0, Z8)
	MIXPOST(Z4, Z12)
	SPLITMIX(Z0)
	SPLITMIX(Z4)
	SPLITMIX(Z0)
	SPLITMIX(Z4)
	VPSRLQ    $11, Z0, Z0
	VPSRLQ    $11, Z4, Z4
	VPADDQ    Z25, Z24, Z24
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z4, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JMP       single

done:
	VZEROUPPER
	RET
