package graph

import "repro/internal/sparse"

// DegreeStats summarizes the degree distribution of a graph or matrix.
type DegreeStats struct {
	MinDegree int
	MaxDegree int
	AvgDegree float64
	// EmptyRows counts vertices with no out-edges, the paper's
	// hypersparsity indicator for partitioned blocks.
	EmptyRows int
}

// Stats computes out-degree statistics from the adjacency matrix.
func Stats(a *sparse.CSR) DegreeStats {
	s := DegreeStats{MinDegree: int(^uint(0) >> 1)}
	for i := 0; i < a.Rows; i++ {
		d := a.RowNNZ(i)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.EmptyRows++
		}
	}
	if a.Rows == 0 {
		s.MinDegree = 0
	}
	s.AvgDegree = a.AvgDegree()
	return s
}
