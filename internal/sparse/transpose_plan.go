package sparse

import "repro/internal/dense"

// TransposePlan is aᵀ held as a CSR, behind the two entry points
// benchmark/probes.go times (sparse.plan_build_s, sparse.spmmt_plan_s).
// It used to be a kernel of its own — CSC arrays plus a worker split
// balanced by nonzeros; the split now lives in SpMMAdd, where every
// product has it, and the gather over CSC arrays was already SpMM over
// a.Transpose() bit for bit. No trainer uses the type; it leaves with the
// next change to benchmark/.
type TransposePlan struct{ at *CSR }

// NewTransposePlan transposes a.
func NewTransposePlan(a *CSR) *TransposePlan { return &TransposePlan{at: a.Transpose()} }

// SpMMT computes dst = aᵀ * x. dst must be a.Cols x x.Cols and is
// overwritten.
func (p *TransposePlan) SpMMT(dst, x *dense.Matrix) { SpMM(dst, p.at, x) }
