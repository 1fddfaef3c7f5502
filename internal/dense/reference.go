package dense

// Reference kernels: the one-source-at-a-time loops the fused multi-source
// sweeps (Axpy4Row and its callers) replaced, running on the Go loop AxpyRow
// itself rather than on whatever AxpyFor selects. They are the oracle of the
// bit-identity tests: the default f64 path — four-source sweeps, fused
// epilogues and, where the CPU has them, the vector routines — must
// reproduce these loops bit for bit, so TestDefaultBitIdenticalToReference
// compares assembly with Go and a failure localizes the divergence to a
// single kernel. KernelOptions.Reference trains on them end to end, which
// is also the speed of the portable fallback one source at a time
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

// RefMulAdd computes dst += a * b: the k-blocked ikj loop with one AxpyRow
// per nonzero a[i,k] — exactly the accumulation the blocked MulAdd fuses
// four sources at a time.
func RefMulAdd[T Elem](dst, a, b *Of[T]) {
	checkMul(dst, a, b, "RefMulAdd")
	k, m := a.Cols, b.Cols
	for k0 := 0; k0 < k; k0 += blockSize {
		k1 := min(k0+blockSize, k)
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*m : (i+1)*m]
			for kk := k0; kk < k1; kk++ {
				if av := arow[kk]; av != 0 {
					AxpyRow(drow, av, b.Data[kk*m:(kk+1)*m])
				}
			}
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
