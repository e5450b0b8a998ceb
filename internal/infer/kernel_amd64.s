//go:build amd64

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE. When both are set,
// XGETBV(0) bits 1-2 confirm the OS saves XMM+YMM state on context switch.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	MOVL	CX, BX
	ANDL	$(1<<27 | 1<<28), BX
	CMPL	BX, $(1<<27 | 1<<28)
	JNE	noavx
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// Both kernels work on one block: four samples, one per lane of a YMM
// register of float64. Every lane carries its sample through exactly the
// operations of nn.Model's forward pass, in the same order: VMULPD then
// VADDPD rounds the product and the sum separately, as the scalar code
// does (never FMA), and each accumulator starts from its bias and adds in
// ascending row (conv) or activation (dense) order. PCALIGN pins each inner
// loop to the start of a cache line, so its timing does not move with the
// size of unrelated code.

// func convBlockAVX(xn, xs, w, bias, act *float64, filters, rows, nvar, nshared int)
//
// For f in [0,filters):
//	Y0..Y9 = broadcast(bias[f])
//	for i in [0,nvar):    Yj += broadcast(w[f*rows+i]) * xn[(i*10+j)*4 .. +4]
//	for i in [0,nshared): p = broadcast(w[f*rows+nvar+i]) * xs[i*4 .. +4]; Yj += p
//	act[(f*10+j)*4 .. +4] = VMAXPD(Yj, 0)
//
// A shared row holds one value per lane for all ten columns, so its product
// is formed once and added to every column accumulator at that row's place
// in the sequence: each accumulator sees the operands it would see with the
// row spelt out ten times. VMAXPD operand order matters: the accumulator
// must be src1 so that NaN and -0 resolve to src2 (+0), matching the scalar
// relu branch.
TEXT ·convBlockAVX(SB), NOSPLIT, $0-72
	MOVQ	xn+0(FP), SI
	MOVQ	xs+8(FP), R8
	MOVQ	w+16(FP), DX
	MOVQ	bias+24(FP), BX
	MOVQ	act+32(FP), DI
	MOVQ	filters+40(FP), R9
	MOVQ	rows+48(FP), R10
	MOVQ	nvar+56(FP), R11
	MOVQ	nshared+64(FP), R12
	SHLQ	$3, R10          // rows in bytes: the filter stride of w
	VXORPD	Y15, Y15, Y15
filter:
	VBROADCASTSD	(BX), Y0
	VMOVAPD	Y0, Y1
	VMOVAPD	Y0, Y2
	VMOVAPD	Y0, Y3
	VMOVAPD	Y0, Y4
	VMOVAPD	Y0, Y5
	VMOVAPD	Y0, Y6
	VMOVAPD	Y0, Y7
	VMOVAPD	Y0, Y8
	VMOVAPD	Y0, Y9
	MOVQ	DX, AX           // &w[f*rows]
	MOVQ	SI, R13          // &xn[0]
	MOVQ	R11, CX          // varying rows left
	TESTQ	CX, CX
	JZ	shared
	PCALIGN	$64
vrow:
	VBROADCASTSD	(AX), Y10
	VMULPD	0(R13), Y10, Y11
	VADDPD	Y11, Y0, Y0
	VMULPD	32(R13), Y10, Y12
	VADDPD	Y12, Y1, Y1
	VMULPD	64(R13), Y10, Y13
	VADDPD	Y13, Y2, Y2
	VMULPD	96(R13), Y10, Y14
	VADDPD	Y14, Y3, Y3
	VMULPD	128(R13), Y10, Y11
	VADDPD	Y11, Y4, Y4
	VMULPD	160(R13), Y10, Y12
	VADDPD	Y12, Y5, Y5
	VMULPD	192(R13), Y10, Y13
	VADDPD	Y13, Y6, Y6
	VMULPD	224(R13), Y10, Y14
	VADDPD	Y14, Y7, Y7
	VMULPD	256(R13), Y10, Y11
	VADDPD	Y11, Y8, Y8
	VMULPD	288(R13), Y10, Y12
	VADDPD	Y12, Y9, Y9
	ADDQ	$8, AX
	ADDQ	$320, R13
	DECQ	CX
	JNZ	vrow
shared:
	MOVQ	R8, R13          // &xs[0]
	MOVQ	R12, CX          // shared rows left
	TESTQ	CX, CX
	JZ	relu
	PCALIGN	$64
srow:
	VBROADCASTSD	(AX), Y10
	VMULPD	(R13), Y10, Y11
	VADDPD	Y11, Y0, Y0
	VADDPD	Y11, Y1, Y1
	VADDPD	Y11, Y2, Y2
	VADDPD	Y11, Y3, Y3
	VADDPD	Y11, Y4, Y4
	VADDPD	Y11, Y5, Y5
	VADDPD	Y11, Y6, Y6
	VADDPD	Y11, Y7, Y7
	VADDPD	Y11, Y8, Y8
	VADDPD	Y11, Y9, Y9
	ADDQ	$8, AX
	ADDQ	$32, R13
	DECQ	CX
	JNZ	srow
relu:
	VMAXPD	Y15, Y0, Y0
	VMAXPD	Y15, Y1, Y1
	VMAXPD	Y15, Y2, Y2
	VMAXPD	Y15, Y3, Y3
	VMAXPD	Y15, Y4, Y4
	VMAXPD	Y15, Y5, Y5
	VMAXPD	Y15, Y6, Y6
	VMAXPD	Y15, Y7, Y7
	VMAXPD	Y15, Y8, Y8
	VMAXPD	Y15, Y9, Y9
	VMOVUPD	Y0, 0(DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, 128(DI)
	VMOVUPD	Y5, 160(DI)
	VMOVUPD	Y6, 192(DI)
	VMOVUPD	Y7, 224(DI)
	VMOVUPD	Y8, 256(DI)
	VMOVUPD	Y9, 288(DI)
	ADDQ	$320, DI
	ADDQ	R10, DX
	ADDQ	$8, BX
	DECQ	R9
	JNZ	filter
	VZEROUPPER
	RET

// func denseBlockAVX(act, wT, bias, logits *float64, flat int)
//
//	Y0..Y9 = broadcast(bias[c])
//	for k in [0,flat): a = act[k*4 .. +4]; Yc += broadcast(wT[k*10+c]) * a
//	logits[c*4 .. +4] = Yc
//
// wT is the dense weight matrix in k-major order (wT[k*10+c] =
// DenseW[c*flat+k]), so one k-step reads ten consecutive weights.
TEXT ·denseBlockAVX(SB), NOSPLIT, $0-40
	MOVQ	act+0(FP), SI
	MOVQ	wT+8(FP), DX
	MOVQ	bias+16(FP), BX
	MOVQ	logits+24(FP), DI
	MOVQ	flat+32(FP), CX
	VBROADCASTSD	0(BX), Y0
	VBROADCASTSD	8(BX), Y1
	VBROADCASTSD	16(BX), Y2
	VBROADCASTSD	24(BX), Y3
	VBROADCASTSD	32(BX), Y4
	VBROADCASTSD	40(BX), Y5
	VBROADCASTSD	48(BX), Y6
	VBROADCASTSD	56(BX), Y7
	VBROADCASTSD	64(BX), Y8
	VBROADCASTSD	72(BX), Y9
	PCALIGN	$64
kloop:
	VMOVUPD	(SI), Y10
	VBROADCASTSD	0(DX), Y11
	VMULPD	Y10, Y11, Y11
	VADDPD	Y11, Y0, Y0
	VBROADCASTSD	8(DX), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y1, Y1
	VBROADCASTSD	16(DX), Y13
	VMULPD	Y10, Y13, Y13
	VADDPD	Y13, Y2, Y2
	VBROADCASTSD	24(DX), Y14
	VMULPD	Y10, Y14, Y14
	VADDPD	Y14, Y3, Y3
	VBROADCASTSD	32(DX), Y11
	VMULPD	Y10, Y11, Y11
	VADDPD	Y11, Y4, Y4
	VBROADCASTSD	40(DX), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y5, Y5
	VBROADCASTSD	48(DX), Y13
	VMULPD	Y10, Y13, Y13
	VADDPD	Y13, Y6, Y6
	VBROADCASTSD	56(DX), Y14
	VMULPD	Y10, Y14, Y14
	VADDPD	Y14, Y7, Y7
	VBROADCASTSD	64(DX), Y11
	VMULPD	Y10, Y11, Y11
	VADDPD	Y11, Y8, Y8
	VBROADCASTSD	72(DX), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y9, Y9
	ADDQ	$32, SI
	ADDQ	$80, DX
	DECQ	CX
	JNZ	kloop
	VMOVUPD	Y0, 0(DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, 128(DI)
	VMOVUPD	Y5, 160(DI)
	VMOVUPD	Y6, 192(DI)
	VMOVUPD	Y7, 224(DI)
	VMOVUPD	Y8, 256(DI)
	VMOVUPD	Y9, 288(DI)
	VZEROUPPER
	RET
