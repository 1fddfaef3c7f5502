// Package dense implements row-major dense float64 matrices and the dense
// kernels (GEMM, elementwise operations, activations) used by GNN training.
//
// Every matrix is float64: training's contract is bit-identity across
// trainers, worker counts and builds. The package favors explicit,
// allocation-conscious APIs: most kernels write into a caller-supplied
// destination so that training loops can reuse buffers across epochs.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
//
// The zero value is an empty 0x0 matrix ready to use. Data has length
// Rows*Cols and element (i, j) lives at Data[i*Cols+j].
type Matrix struct {
	Rows int
	Cols int
	Data []float64
}

// New returns a zero-initialized r-by-c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("dense: ragged row %d: got %d columns, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// FromSlice wraps data (not copied) as an r-by-c matrix.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Panics on shape mismatch.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: CopyFrom shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SubMatrix returns a copy of the block with rows [r0, r1) and columns
// [c0, c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("dense: SubMatrix [%d:%d, %d:%d] out of range for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SubMatrixInto copies the block with rows [r0, r1) and columns [c0, c1)
// into dst, which must be (r1-r0) x (c1-c0). It is the allocation-free form
// of SubMatrix for callers that draw dst from a Workspace.
func (m *Matrix) SubMatrixInto(dst *Matrix, r0, r1, c0, c1 int) {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("dense: SubMatrixInto [%d:%d, %d:%d] out of range for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	if dst.Rows != r1-r0 || dst.Cols != c1-c0 {
		panic(fmt.Sprintf("dense: SubMatrixInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, r1-r0, c1-c0))
	}
	for i := r0; i < r1; i++ {
		copy(dst.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
}

// SetSubMatrix copies block into m starting at (r0, c0).
func (m *Matrix) SetSubMatrix(r0, c0 int, block *Matrix) {
	if r0 < 0 || r0+block.Rows > m.Rows || c0 < 0 || c0+block.Cols > m.Cols {
		panic(fmt.Sprintf("dense: SetSubMatrix %dx%d at (%d,%d) out of range for %dx%d",
			block.Rows, block.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < block.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+block.Cols], block.Row(i))
	}
}

// RowSlice returns a copy of rows [r0, r1).
func (m *Matrix) RowSlice(r0, r1 int) *Matrix {
	return m.SubMatrix(r0, r1, 0, m.Cols)
}

// GatherRows returns the matrix whose row k is a copy of m's row idx[k] —
// the row-gather behind the sparsity-aware halo exchange, which sends
// only the rows a peer's adjacency block references.
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto is the allocation-free form of GatherRows: dst must be
// len(idx) x m.Cols and is overwritten.
func GatherRowsInto(dst, m *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("dense: GatherRowsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for k, i := range idx {
		copy(dst.Row(k), m.Row(i))
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes mᵀ into dst, which must be m.Cols x m.Rows: the
// allocation-free form of T.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("dense: TransposeInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			dst.Data[j*m.Rows+i] = v
		}
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Matrix) {
	sameShape3(dst, a, b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b *Matrix) {
	sameShape3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// AXPY computes dst += alpha * x.
func AXPY(dst *Matrix, alpha float64, x *Matrix) {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("dense: AXPY shape mismatch: %dx%d vs %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] += alpha * x.Data[i]
	}
}

// Scale multiplies every element of m by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MaxAbsDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// EqualWithin reports whether a and b have the same shape and every element
// differs by at most tol.
func EqualWithin(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// GlorotInit fills m with the Glorot/Xavier uniform initialization used for
// GCN weight matrices, drawing from U(-s, s) with s = sqrt(6/(fanIn+fanOut)).
func (m *Matrix) GlorotInit(rng *rand.Rand) {
	s := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * s
	}
}

// RandomInit fills m with uniform values in [-scale, scale).
func (m *Matrix) RandomInit(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// String renders small matrices for debugging; large matrices render as a
// shape summary.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("dense.Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("dense.Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

func sameShape3(a, b, c *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows != c.Rows || a.Cols != c.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch: %dx%d, %dx%d, %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}
