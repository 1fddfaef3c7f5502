package dense

// Reference kernels: the one-source-at-a-time loops that the register tiles
// replaced, running on the Go loop AxpyRow itself rather than on whatever
// tileF64 or csrF64 holds, the scalar dot loop of RefMulT, and the Go
// loops of log-softmax the row lanes replay (RefLogSoftmax*). RefMul
// and RefTMul are also the references of MulNZ and TMulNZ, which keep their
// terms and order. They are the oracle of the bit-identity tests: the
// default path — register tiles, products over a ReLU operand's nonzeros,
// fused epilogues and, where the CPU has them, the vector routines — must
// reproduce these loops bit for bit, so
// TestDefaultBitIdenticalToReference compares assembly with Go and a
// failure localizes the divergence to a single kernel
// (TestGemmTileMatchesReference holds each GEMM to them alone).
// core.Serial's Reference field trains on them end to end
// (BenchmarkEngineEpochKernels' reference row).
//
// They always run serially (no worker-pool dispatch): what they
// preserve is the single-core scalar loop, not a partitioned variant of it.

// RefMul computes dst = a * b with the reference kernel. dst must not alias
// a or b and is overwritten.
func RefMul(dst, a, b *Matrix) {
	checkMul(dst, a, b, "RefMul")
	dst.Zero()
	RefMulAdd(dst, a, b)
}

// RefMulAdd computes dst += a * b: the ikj loop with one AxpyRow per nonzero
// a[i,k], in ascending k — exactly the accumulation MulAdd keeps in its
// register tiles.
func RefMulAdd(dst, a, b *Matrix) {
	checkMul(dst, a, b, "RefMulAdd")
	k, m := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*m : (i+1)*m]
		for kk, av := range a.Data[i*k : (i+1)*k] {
			if av != 0 {
				AxpyRow(drow, av, b.Data[kk*m:(kk+1)*m])
			}
		}
	}
}

// RefMulT computes dst = a * bᵀ with the reference dot loop: each element
// summed from +0 over ascending k, no term skipped — the accumulation MulT
// reproduces over its packed bᵀ.
func RefMulT(dst, a, b *Matrix) {
	checkMulT(dst, a, b, "RefMulT")
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := range drow {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
}

// RefLogSoftmaxForward writes log_softmax(z) into dst on the Go loop
// logSoftmaxRow, row by row: what LogSoftmax.Forward computes, whichever
// kernel runs it. dst may alias z.
func RefLogSoftmaxForward(dst, z *Matrix) {
	sameShape2(dst, z, "RefLogSoftmaxForward")
	logSoftmaxForwardRows(dst, z, 0, z.Rows)
}

// RefLogSoftmaxBackward writes the log-softmax gradient into dst on the Go
// loop logSoftmaxBackwardRows: what LogSoftmax.Backward computes. dst may
// alias grad or y.
func RefLogSoftmaxBackward(dst, grad, y *Matrix) {
	sameShape3(dst, grad, y, "RefLogSoftmaxBackward")
	logSoftmaxBackwardRows(dst, grad, y, 0, y.Rows)
}

// RefTMul computes dst = aᵀ * b with the reference scatter: ascending rows
// of a, one AxpyRow per nonzero a[r,i] — the accumulation order the blocked
// TMul preserves.
func RefTMul(dst, a, b *Matrix) {
	checkTMul(dst, a, b, "RefTMul")
	dst.Zero()
	k, m := a.Cols, b.Cols
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*k : (r+1)*k]
		brow := b.Data[r*m : (r+1)*m]
		for i, av := range arow {
			if av != 0 {
				AxpyRow(dst.Data[i*m:(i+1)*m], av, brow)
			}
		}
	}
}
