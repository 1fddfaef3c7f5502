package sparse

import "repro/internal/dense"

// Reference kernels: the one-nonzero-at-a-time SpMM loops the fused
// four-entry sweeps (axpyEntryRun) replaced. Like the dense reference
// kernels they call the Go loop dense.AxpyRow directly, never the routines
// dense.AxpyFor selects, so they are the bit-identity oracle for the default
// path on every platform, and they always run serially regardless of the
// parallel backend.

// RefSpMM computes dst = a * x with the reference kernel: per CSR row, one
// AxpyRow per stored entry, feature-blocked for wide operands exactly like
// the optimized loop. dst is overwritten.
func RefSpMM(dst *dense.Matrix, a *CSR, x *dense.Matrix) {
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

// RefSpMMT computes dst = aᵀ * x for the planned a with the reference
// gather: per output row, one AxpyRow per plan entry in plan order. dst is
// overwritten.
func (p *TransposePlan) RefSpMMT(dst, x *dense.Matrix) {
	p.check(dst, x, "TransposePlan.RefSpMMT")
	dst.Zero()
	f := x.Cols
	for c := 0; c < p.cols; c++ {
		drow := dst.Data[c*f : (c+1)*f]
		for k := p.colPtr[c]; k < p.colPtr[c+1]; k++ {
			dense.AxpyRow(drow, p.val[k], x.Data[p.srcRow[k]*f:(p.srcRow[k]+1)*f])
		}
	}
}
