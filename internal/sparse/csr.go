// Package sparse implements the compressed sparse row (CSR) matrices and
// sparse-times-dense kernels (SpMM) at the heart of GNN training.
//
// The paper's key computation is multiplying the (normalized) adjacency
// matrix A — stored sparse — by tall-skinny dense activation matrices. This
// package provides those kernels plus the block-extraction operations needed
// to lay a sparse matrix out on 1D, 2D, and 3D process grids, and the
// symmetric normalization D^{-1/2}(A+I)D^{-1/2} from Kipf & Welling.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/dense"
)

// Coord is a single nonzero in coordinate (COO) format.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSROf is a sparse matrix in compressed sparse row format, generic over
// the value type so the float32 mixed-precision path can reuse every kernel
// and converter.
//
// RowPtr has length Rows+1; the column indices and values of row i occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices are strictly increasing within each row.
type CSROf[T dense.Elem] struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []T
}

// CSR is the float64 CSR matrix used by the default training path.
type CSR = CSROf[float64]

// As returns a in element type T: a itself when T is float64, otherwise a
// matrix over a's own RowPtr and ColIdx — a CSR is never modified once
// built, so the structure is shared, not copied — with the values rounded
// through T. It is where a float32 trainer downcasts the adjacency, once
// at set-up.
func As[T dense.Elem](a *CSR) *CSROf[T] {
	if same, ok := any(a).(*CSROf[T]); ok {
		return same
	}
	out := &CSROf[T]{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]T, len(a.Val))}
	for i, v := range a.Val {
		out.Val[i] = T(v)
	}
	return out
}

// NewCSR builds a CSR matrix from coordinate entries in O(len(entries) +
// rows + cols) time by a stable two-pass counting sort: entries are bucketed
// by column, then by row, so each row ends with its columns ascending and
// equal (row, col) entries adjacent in input order. Duplicates are summed in
// that order — ((v₀ + v₁) + v₂) + … as they appear in entries — so the
// result's bits depend on nothing but the input. A sum of zero stays a stored
// entry. Entries out of range cause a panic.
func NewCSR(rows, cols int, entries []Coord) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	// Pass 1, by column: t is the transpose, each of its rows (a column of
	// the result) holding that column's entries in input order.
	t := &CSR{
		Rows:   cols,
		Cols:   rows,
		RowPtr: make([]int, cols+1),
		ColIdx: make([]int, len(entries)),
		Val:    make([]float64, len(entries)),
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, rows, cols))
		}
		t.RowPtr[e.Col+1]++
	}
	next := cursors(t.RowPtr)
	for _, e := range entries {
		t.ColIdx[next[e.Col]], t.Val[next[e.Col]] = e.Row, e.Val
		next[e.Col]++
	}
	// Pass 2, by row: Transpose scatters t's rows in order, which is stable.
	m := t.Transpose()
	// Sum each run of equal columns left to right, compacting in place.
	n := 0
	for i := 0; i < rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		m.RowPtr[i] = n
		for k := lo; k < hi; k++ {
			if n > m.RowPtr[i] && m.ColIdx[n-1] == m.ColIdx[k] {
				m.Val[n-1] += m.Val[k]
				continue
			}
			m.ColIdx[n], m.Val[n] = m.ColIdx[k], m.Val[k]
			n++
		}
	}
	m.RowPtr[rows] = n
	m.ColIdx, m.Val = m.ColIdx[:n], m.Val[:n]
	return m
}

// cursors turns the per-bucket counts stored at ptr[i+1] into CSR offsets
// in place and returns a copy of the bucket starts, one write cursor per
// bucket for a counting sort's scatter pass.
func cursors(ptr []int) []int {
	for i := 1; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	return append([]int(nil), ptr[:len(ptr)-1]...)
}

// NNZ returns the number of stored nonzeros.
func (m *CSROf[T]) NNZ() int { return len(m.Val) }

// At returns element (i, j) with a binary search within row i.
func (m *CSROf[T]) At(i, j int) T {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// Entries returns all nonzeros in row-major order as coordinate entries
// (values widened to float64).
func (m *CSROf[T]) Entries() []Coord {
	out := make([]Coord, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out = append(out, Coord{Row: i, Col: m.ColIdx[k], Val: float64(m.Val[k])})
		}
	}
	return out
}

// Clone returns a deep copy of m.
func (m *CSROf[T]) Clone() *CSROf[T] {
	out := &CSROf[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]T(nil), m.Val...),
	}
	return out
}

// Transpose returns mᵀ in CSR format using a counting pass (the classic
// CSR→CSC conversion, reinterpreted).
func (m *CSROf[T]) Transpose() *CSROf[T] {
	out := &CSROf[T]{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]T, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	next := cursors(out.RowPtr)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			pos := next[c]
			next[c]++
			out.ColIdx[pos] = i
			out.Val[pos] = m.Val[k]
		}
	}
	return out
}

// ExtractBlock returns the sub-matrix with rows [r0, r1) and columns
// [c0, c1) re-indexed to local coordinates, as used when distributing a
// matrix onto a process grid.
func (m *CSROf[T]) ExtractBlock(r0, r1, c0, c1 int) *CSROf[T] {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("sparse: ExtractBlock [%d:%d, %d:%d] out of range for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := &CSROf[T]{Rows: r1 - r0, Cols: c1 - c0, RowPtr: make([]int, r1-r0+1)}
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		start := lo + sort.SearchInts(m.ColIdx[lo:hi], c0)
		end := lo + sort.SearchInts(m.ColIdx[lo:hi], c1)
		for k := start; k < end; k++ {
			out.ColIdx = append(out.ColIdx, m.ColIdx[k]-c0)
			out.Val = append(out.Val, m.Val[k])
		}
		out.RowPtr[i-r0+1] = len(out.ColIdx)
	}
	return out
}

// Scale multiplies all values by alpha in place.
func (m *CSROf[T]) Scale(alpha T) {
	for i := range m.Val {
		m.Val[i] *= alpha
	}
}

// ToDense materializes m as a dense matrix (test/debug helper; avoid on
// large inputs).
func (m *CSROf[T]) ToDense() *dense.Of[T] {
	out := dense.NewOf[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return out
}

// RowNNZ returns the number of nonzeros in row i.
func (m *CSROf[T]) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// AvgDegree returns NNZ/Rows, the average number of nonzeros per row
// (written d in the paper).
func (m *CSROf[T]) AvgDegree() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// Equal reports whether a and b have identical shape and nonzero structure
// with values equal within tol.
func Equal[T dense.Elem](a, b *CSROf[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
		d := float64(a.Val[k]) - float64(b.Val[k])
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
