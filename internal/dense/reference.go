package dense

// Reference kernels: the one-source-at-a-time loops that the register tile
// (the GEMM family) and the four-source sweeps (Axpy4Row, in SpMM) replaced,
// running on the Go loop AxpyRow itself rather than on whatever AxpyFor or
// tileFor selects, and the scalar dot loop of RefMulT. They are the oracle
// of the bit-identity tests: the default path — register tiles,
// four-source sweeps, fused epilogues and, where the CPU has them, the
// vector routines — must reproduce these loops bit for bit, so
// TestDefaultBitIdenticalToReference compares assembly with Go and a
// failure localizes the divergence to a single kernel
// (TestGemmTileMatchesReference holds each GEMM to them alone).
// KernelOptions.Reference trains on them end to end
// (BenchmarkEngineEpochKernels' reference row).
//
// They always run serially (no parallel-backend dispatch): what they
// preserve is the single-core scalar loop, not a partitioned variant of it.

// RefMul computes dst = a * b with the reference kernel. dst must not alias
// a or b and is overwritten.
func RefMul[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "RefMul")
	dst.Zero()
	RefMulAdd(dst, a, b)
}

// RefMulAdd computes dst += a * b: the ikj loop with one AxpyRow per nonzero
// a[i,k], in ascending k — exactly the accumulation MulAdd keeps in its
// register tiles.
func RefMulAdd[T Elem](dst, a, b *Of[T]) {
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
func RefMulT[T Elem](dst, a, b *Of[T]) {
	checkMulT(dst, a, b, "RefMulT")
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := range drow {
			brow := b.Data[j*k : (j+1)*k]
			var s T
			for kk, av := range arow {
				s += av * brow[kk]
			}
			drow[j] = s
		}
	}
}

// RefTMul computes dst = aᵀ * b with the reference scatter: ascending rows
// of a, one AxpyRow per nonzero a[r,i] — the accumulation order the blocked
// TMul preserves.
func RefTMul[T Elem](dst, a, b *Of[T]) {
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
