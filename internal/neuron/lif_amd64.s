//go:build !race

#include "textflag.h"

// func lif4AVX2(v, theta, refractoryTill, inhibitedTill, current []float64, a, b, c, dt, vReset, vTh, thetaDecay, now float64, adapt bool) (n int, crossed uint)
//
// Registers: SI v, R8 theta, R9 refractoryTill, R10 inhibitedTill, R11
// current, CX the lane count, R13 the first lane of the pass, BX adapt.
// Y8–Y15 hold a, b, c, dt, vReset, vTh, thetaDecay and now in every lane.
TEXT ·lif4AVX2(SB), NOSPLIT, $0-208
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         theta_base+24(FP), R8
	MOVQ         refractoryTill_base+48(FP), R9
	MOVQ         inhibitedTill_base+72(FP), R10
	MOVQ         current_base+96(FP), R11
	VBROADCASTSD a+120(FP), Y8
	VBROADCASTSD b+128(FP), Y9
	VBROADCASTSD c+136(FP), Y10
	VBROADCASTSD dt+144(FP), Y11
	VBROADCASTSD vReset+152(FP), Y12
	VBROADCASTSD vTh+160(FP), Y13
	VBROADCASTSD thetaDecay+168(FP), Y14
	VBROADCASTSD now+176(FP), Y15
	MOVBQZX      adapt+184(FP), BX
	XORQ         R13, R13

pass:
	LEAQ    4(R13), AX
	CMPQ    AX, CX
	JA      done
	VMOVUPD (R8)(R13*8), Y0
	TESTQ   BX, BX
	JZ      held
	VMULPD  Y14, Y0, Y0            // theta · thetaDecay
	VMOVUPD Y0, (R8)(R13*8)

held:
	VCMPPD    $0x11, (R10)(R13*8), Y15, Y1 // now < inhibitedTill (LT_OQ)
	VCMPPD    $0x11, (R9)(R13*8), Y15, Y2  // now < refractoryTill
	VORPD     Y2, Y1, Y1
	VMOVUPD   (SI)(R13*8), Y3
	VMULPD    Y3, Y9, Y4                   // b·v
	VADDPD    Y4, Y8, Y4                   // a + b·v
	VMULPD    (R11)(R13*8), Y10, Y5        // c·I
	VADDPD    Y5, Y4, Y4                   // (a + b·v) + c·I
	VMULPD    Y4, Y11, Y4                  // dt·(…)
	VADDPD    Y4, Y3, Y3                   // v + dt·(…)
	VBLENDVPD Y1, Y12, Y3, Y3              // held lanes take vReset
	VMOVUPD   Y3, (SI)(R13*8)
	VADDPD    Y0, Y13, Y6                  // vTh + theta
	VCMPPD    $0x1e, Y6, Y3, Y7            // v > vTh + theta (GT_OQ)
	VANDNPD   Y7, Y1, Y7                   // and not held
	VMOVMSKPD Y7, DX
	ADDQ      $4, R13
	TESTQ     DX, DX
	JZ        pass
	MOVQ      R13, n+192(FP)
	MOVQ      DX, crossed+200(FP)
	VZEROUPPER
	RET

done:
	MOVQ R13, n+192(FP)
	MOVQ $0, crossed+200(FP)
	VZEROUPPER
	RET
