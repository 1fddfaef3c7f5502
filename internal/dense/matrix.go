// Package dense implements row-major dense matrices and the dense kernels
// (GEMM, elementwise operations, activations) used by GNN training.
//
// The matrix core is generic over the element type: Of[T] stores float32 or
// float64 values in row-major order with stride equal to the number of
// columns, and Matrix is an alias for the float64 instantiation every
// existing caller uses. The float32 instantiation backs the mixed-precision
// training path (f32 storage and compute, f64 loss/optimizer accumulation).
// The package favors explicit, allocation-conscious APIs: most kernels write
// into a caller-supplied destination so that training loops can reuse
// buffers across epochs.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Elem constrains the matrix element types: the default float64 path and
// the float32 storage/compute path of mixed-precision training.
type Elem interface {
	~float32 | ~float64
}

// Of is a dense row-major matrix of T values.
//
// The zero value is an empty 0x0 matrix ready to use. Data has length
// Rows*Cols and element (i, j) lives at Data[i*Cols+j].
type Of[T Elem] struct {
	Rows int
	Cols int
	Data []T
}

// Matrix is the float64 matrix every f64 kernel and trainer operates on.
type Matrix = Of[float64]

// New returns a zero-initialized r-by-c float64 matrix.
func New(r, c int) *Matrix { return NewOf[float64](r, c) }

// NewOf returns a zero-initialized r-by-c matrix of T.
func NewOf[T Elem](r, c int) *Of[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Of[T]{Rows: r, Cols: c, Data: make([]T, r*c)}
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
func FromSlice(r, c int, data []float64) *Matrix { return FromSliceOf(r, c, data) }

// FromSliceOf wraps data (not copied) as an r-by-c matrix of T.
func FromSliceOf[T Elem](r, c int, data []T) *Of[T] {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: FromSlice %dx%d needs %d values, got %d", r, c, r*c, len(data)))
	}
	return &Of[T]{Rows: r, Cols: c, Data: data}
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Convert writes src into dst element by element, rounding through the
// destination type. It is the boundary crossing of the mixed-precision
// path: f64 master weights down to the f32 compute replicas, and f32
// results up to f64 reports. Shapes must match.
func Convert[D, S Elem](dst *Of[D], src *Of[S]) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("dense: Convert shape mismatch: %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = D(v)
	}
}

// As makes *dst hold src in element type D. When D is S's own type that is
// src itself: no copy. Otherwise src is rounded through D (Convert) into
// the matrix *dst already points at, allocated here the first time. It is
// how a trainer typed in its element meets the float64 masters — one
// expression serves both instantiations, and the float64 one pays nothing.
func As[D, S Elem](dst **Of[D], src *Of[S]) {
	if same, ok := any(src).(*Of[D]); ok {
		*dst = same
		return
	}
	if *dst == nil {
		*dst = NewOf[D](src.Rows, src.Cols)
	}
	Convert(*dst, src)
}

// At returns element (i, j).
func (m *Of[T]) At(i, j int) T {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Of[T]) Set(i, j int, v T) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Of[T]) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Of[T]) Row(i int) []T {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Of[T]) Clone() *Of[T] {
	out := NewOf[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Panics on shape mismatch.
func (m *Of[T]) CopyFrom(src *Of[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: CopyFrom shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets all elements to zero.
func (m *Of[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Of[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SubMatrix returns a copy of the block with rows [r0, r1) and columns
// [c0, c1).
func (m *Of[T]) SubMatrix(r0, r1, c0, c1 int) *Of[T] {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("dense: SubMatrix [%d:%d, %d:%d] out of range for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := NewOf[T](r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SubMatrixInto copies the block with rows [r0, r1) and columns [c0, c1)
// into dst, which must be (r1-r0) x (c1-c0). It is the allocation-free form
// of SubMatrix for callers that draw dst from a Workspace.
func (m *Of[T]) SubMatrixInto(dst *Of[T], r0, r1, c0, c1 int) {
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
func (m *Of[T]) SetSubMatrix(r0, c0 int, block *Of[T]) {
	if r0 < 0 || r0+block.Rows > m.Rows || c0 < 0 || c0+block.Cols > m.Cols {
		panic(fmt.Sprintf("dense: SetSubMatrix %dx%d at (%d,%d) out of range for %dx%d",
			block.Rows, block.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < block.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+block.Cols], block.Row(i))
	}
}

// RowSlice returns a copy of rows [r0, r1).
func (m *Of[T]) RowSlice(r0, r1 int) *Of[T] {
	return m.SubMatrix(r0, r1, 0, m.Cols)
}

// GatherRows returns the matrix whose row k is a copy of m's row idx[k] —
// the row-gather behind the sparsity-aware halo exchange, which sends
// only the rows a peer's adjacency block references.
func GatherRows[T Elem](m *Of[T], idx []int) *Of[T] {
	out := NewOf[T](len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto is the allocation-free form of GatherRows: dst must be
// len(idx) x m.Cols and is overwritten.
func GatherRowsInto[T Elem](dst, m *Of[T], idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("dense: GatherRowsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for k, i := range idx {
		copy(dst.Row(k), m.Row(i))
	}
}

// T returns the transpose of m as a new matrix.
func (m *Of[T]) T() *Of[T] {
	out := NewOf[T](m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes mᵀ into dst, which must be m.Cols x m.Rows: the
// allocation-free form of T.
func (m *Of[T]) TransposeInto(dst *Of[T]) {
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
func Add[T Elem](dst, a, b *Of[T]) {
	sameShape3(dst, a, b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub[T Elem](dst, a, b *Of[T]) {
	sameShape3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// AXPY computes dst += alpha * x.
func AXPY[T Elem](dst *Of[T], alpha T, x *Of[T]) {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("dense: AXPY shape mismatch: %dx%d vs %dx%d", dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] += alpha * x.Data[i]
	}
}

// Scale multiplies every element of m by alpha in place.
func (m *Of[T]) Scale(alpha T) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Norm returns the Frobenius norm of m, accumulated in float64.
func (m *Of[T]) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (m *Of[T]) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(float64(v)); a > mx {
			mx = a
		}
	}
	return mx
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b.
func MaxAbsDiff[T Elem](a, b *Of[T]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MaxAbsDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var mx float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > mx {
			mx = d
		}
	}
	return mx
}

// EqualWithin reports whether a and b have the same shape and every element
// differs by at most tol.
func EqualWithin[T Elem](a, b *Of[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

// GlorotInit fills m with the Glorot/Xavier uniform initialization used for
// GCN weight matrices, drawing from U(-s, s) with s = sqrt(6/(fanIn+fanOut)).
func (m *Of[T]) GlorotInit(rng *rand.Rand) {
	s := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = T((rng.Float64()*2 - 1) * s)
	}
}

// RandomInit fills m with uniform values in [-scale, scale).
func (m *Of[T]) RandomInit(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = T((rng.Float64()*2 - 1) * scale)
	}
}

// String renders small matrices for debugging; large matrices render as a
// shape summary.
func (m *Of[T]) String() string {
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
			s += fmt.Sprintf("%.4g", float64(m.At(i, j)))
		}
	}
	return s + "]"
}

func sameShape3[T Elem](a, b, c *Of[T], op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows != c.Rows || a.Cols != c.Cols {
		panic(fmt.Sprintf("dense: %s shape mismatch: %dx%d, %dx%d, %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}
