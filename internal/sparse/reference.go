package sparse

import "repro/internal/dense"

// Reference kernel: the one-nonzero-at-a-time SpMM loop the CSR tile
// replaced — Aᵀ·x is the same loop over a.Transpose(), so there is one.
// Like the dense reference kernels it calls the Go loop dense.AxpyRow
// directly, never the routines the tiles select, so it is the bit-identity
// oracle for the default path on every platform, and it always runs
// serially regardless of the worker count.

// RefSpMM computes dst = a * x with the reference kernel: per CSR row, one
// AxpyRow per stored entry. dst is overwritten.
func RefSpMM(dst *dense.Matrix, a *CSR, x *dense.Matrix) {
	checkSpMM(dst, a, x, "RefSpMM")
	dst.Zero()
	f := x.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*f : (i+1)*f]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			dense.AxpyRow(drow, a.Val[k], x.Data[a.ColIdx[k]*f:(a.ColIdx[k]+1)*f])
		}
	}
}
