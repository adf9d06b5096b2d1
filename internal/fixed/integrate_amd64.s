//go:build !race

#include "textflag.h"

// func accumulate8AVX2(words []Word, stride int, rows []int, step, amp, decay float64, cur []float64)
//
// Registers: SI the block's first word, DX the row stride in bytes, R8/R9
// the row list and its length, DI the block's first current, CX the blocks
// left, BX zero iff decay is ±0. Y12, Y13, Y14 hold step, amp and decay
// in every lane. A pass takes two blocks (16 lanes, Y0–Y3) while two
// remain, then one (Y0–Y1).
TEXT ·accumulate8AVX2(SB), NOSPLIT, $0-104
	MOVQ         words_base+0(FP), SI
	MOVQ         stride+24(FP), DX
	SHLQ         $3, DX
	MOVQ         rows_base+32(FP), R8
	MOVQ         rows_len+40(FP), R9
	VBROADCASTSD step+56(FP), Y12
	VBROADCASTSD amp+64(FP), Y13
	VBROADCASTSD decay+72(FP), Y14
	MOVQ         decay+72(FP), BX
	SHLQ         $1, BX                 // drop the sign: zero iff decay is ±0
	MOVQ         cur_base+80(FP), DI
	MOVQ         cur_len+88(FP), CX
	SHRQ         $3, CX

pair:
	CMPQ   CX, $2
	JB     single
	TESTQ  BX, BX
	JZ     pairclear
	VMULPD (DI), Y14, Y0
	VMULPD 32(DI), Y14, Y1
	VMULPD 64(DI), Y14, Y2
	VMULPD 96(DI), Y14, Y3
	JMP    pairrows

pairclear:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

pairrows:
	MOVQ  R8, R10
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    pairstore

pairrow:
	MOVQ      (R10), AX
	IMULQ     DX, AX
	VPMOVZXBD (SI)(AX*1), X4
	VPMOVZXBD 4(SI)(AX*1), X5
	VPMOVZXBD 8(SI)(AX*1), X6
	VPMOVZXBD 12(SI)(AX*1), X7
	VCVTDQ2PD X4, Y4
	VCVTDQ2PD X5, Y5
	VCVTDQ2PD X6, Y6
	VCVTDQ2PD X7, Y7
	VMULPD    Y12, Y4, Y4
	VMULPD    Y12, Y5, Y5
	VMULPD    Y12, Y6, Y6
	VMULPD    Y12, Y7, Y7
	VMULPD    Y13, Y4, Y4
	VMULPD    Y13, Y5, Y5
	VMULPD    Y13, Y6, Y6
	VMULPD    Y13, Y7, Y7
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y1, Y1
	VADDPD    Y6, Y2, Y2
	VADDPD    Y7, Y3, Y3
	ADDQ      $8, R10
	DECQ      R11
	JNZ       pairrow

pairstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $16, SI
	ADDQ    $128, DI
	SUBQ    $2, CX
	JMP     pair

single:
	TESTQ  CX, CX
	JZ     done
	TESTQ  BX, BX
	JZ     singleclear
	VMULPD (DI), Y14, Y0
	VMULPD 32(DI), Y14, Y1
	JMP    singlerows

singleclear:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

singlerows:
	MOVQ  R8, R10
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    singlestore

singlerow:
	MOVQ      (R10), AX
	IMULQ     DX, AX
	VPMOVZXBD (SI)(AX*1), X4
	VPMOVZXBD 4(SI)(AX*1), X5
	VCVTDQ2PD X4, Y4
	VCVTDQ2PD X5, Y5
	VMULPD    Y12, Y4, Y4
	VMULPD    Y12, Y5, Y5
	VMULPD    Y13, Y4, Y4
	VMULPD    Y13, Y5, Y5
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y1, Y1
	ADDQ      $8, R10
	DECQ      R11
	JNZ       singlerow

singlestore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

done:
	VZEROUPPER
	RET

// func accumulateWeightsAVX2(g []Weight, stride int, rows []int, amp, decay float64, cur []float64)
//
// Registers: SI the group's first weight of row 0, DX the row stride in
// bytes, R8/R9 the row list and its length, DI the group's first current,
// CX the lanes left (a multiple of 4), BX zero iff decay is ±0. Y13 and
// Y14 hold amp and decay in every lane. A pass takes a block of 16 lanes
// (Y0–Y3) while 16 remain, then groups of 4 (Y0).
TEXT ·accumulateWeightsAVX2(SB), NOSPLIT, $0-96
	MOVQ         g_base+0(FP), SI
	MOVQ         stride+24(FP), DX
	SHLQ         $3, DX
	MOVQ         rows_base+32(FP), R8
	MOVQ         rows_len+40(FP), R9
	VBROADCASTSD amp+56(FP), Y13
	VBROADCASTSD decay+64(FP), Y14
	MOVQ         decay+64(FP), BX
	SHLQ         $1, BX                 // drop the sign: zero iff decay is ±0
	MOVQ         cur_base+72(FP), DI
	MOVQ         cur_len+80(FP), CX

block:
	CMPQ   CX, $16
	JB     group
	TESTQ  BX, BX
	JZ     blockclear
	VMULPD (DI), Y14, Y0
	VMULPD 32(DI), Y14, Y1
	VMULPD 64(DI), Y14, Y2
	VMULPD 96(DI), Y14, Y3
	JMP    blockrows

blockclear:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

blockrows:
	MOVQ  R8, R10
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    blockstore

blockrow:
	MOVQ   (R10), AX
	IMULQ  DX, AX
	VMULPD (SI)(AX*1), Y13, Y4
	VMULPD 32(SI)(AX*1), Y13, Y5
	VMULPD 64(SI)(AX*1), Y13, Y6
	VMULPD 96(SI)(AX*1), Y13, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ   $8, R10
	DECQ   R11
	JNZ    blockrow

blockstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     block

group:
	TESTQ  CX, CX
	JZ     weightsdone
	TESTQ  BX, BX
	JZ     groupclear
	VMULPD (DI), Y14, Y0
	JMP    grouprows

groupclear:
	VXORPD Y0, Y0, Y0

grouprows:
	MOVQ  R8, R10
	MOVQ  R9, R11
	TESTQ R11, R11
	JZ    groupstore

grouprow:
	MOVQ   (R10), AX
	IMULQ  DX, AX
	VMULPD (SI)(AX*1), Y13, Y4
	VADDPD Y4, Y0, Y0
	ADDQ   $8, R10
	DECQ   R11
	JNZ    grouprow

groupstore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     group

weightsdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
