package sparse

import "repro/internal/dense"

// Reference kernel: the one-nonzero-at-a-time SpMM loop the fused
// four-entry sweep (axpyEntryRun) replaced, generic in the element type
// like the kernel it checks — Aᵀ·x is the same loop over a.Transpose(), so
// there is one. Like the dense reference kernels it calls the Go loop
// dense.AxpyRow directly, never the routines dense.AxpyFor selects, so it
// is the bit-identity oracle for the default path on every platform and in
// both precisions, and it always runs serially regardless of the parallel
// backend.

// RefSpMM computes dst = a * x with the reference kernel: per CSR row, one
// AxpyRow per stored entry, feature-blocked for wide operands exactly like
// the optimized loop. dst is overwritten.
func RefSpMM[T dense.Elem](dst *dense.Of[T], a *CSROf[T], x *dense.Of[T]) {
	checkSpMM(dst, a, x, "RefSpMM")
	dst.Zero()
	f := x.Cols
	if f <= spmmFeatureBlock {
		for i := 0; i < a.Rows; i++ {
			drow := dst.Data[i*f : (i+1)*f]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				dense.AxpyRow(drow, a.Val[k], x.Data[a.ColIdx[k]*f:(a.ColIdx[k]+1)*f])
			}
		}
		return
	}
	for i0 := 0; i0 < a.Rows; i0 += spmmRowBlock {
		i1 := min(i0+spmmRowBlock, a.Rows)
		for j0 := 0; j0 < f; j0 += spmmFeatureBlock {
			j1 := min(j0+spmmFeatureBlock, f)
			for i := i0; i < i1; i++ {
				drow := dst.Data[i*f+j0 : i*f+j1]
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					dense.AxpyRow(drow, a.Val[k], x.Data[a.ColIdx[k]*f+j0:a.ColIdx[k]*f+j1])
				}
			}
		}
	}
}
