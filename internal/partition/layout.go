// Package partition provides the data layouts of Tables III-V (1D block,
// 2D grid, 3D mesh), graph partitioners, and the edgecut metrics of
// §IV-A-1 and §IV-A-8.
package partition

import "fmt"

// Layout1D abstracts a contiguous 1D block layout: Blocks() blocks tile
// the index range [0, Items()), block i holding [Lo(i), Hi(i)). Block1D
// (near-equal blocks) and Contig1D (arbitrary partitioner-chosen
// boundaries) implement it; the 1D and 1.5D trainers accept either.
type Layout1D interface {
	// Blocks returns the number of blocks.
	Blocks() int
	// Items returns the total number of items laid out.
	Items() int
	// Lo returns the first index of block i.
	Lo(i int) int
	// Hi returns one past the last index of block i.
	Hi(i int) int
	// Size returns the number of items in block i.
	Size(i int) int
}

// Block1D describes splitting n items into p consecutive blocks, block i
// holding [Lo(i), Hi(i)). Blocks differ in size by at most one item.
type Block1D struct {
	N, P int
}

// NewBlock1D validates and builds a 1D block distribution.
func NewBlock1D(n, p int) Block1D {
	if n < 0 || p <= 0 {
		panic(fmt.Sprintf("partition: invalid Block1D(%d, %d)", n, p))
	}
	return Block1D{N: n, P: p}
}

// Lo returns the first index of block i.
func (b Block1D) Lo(i int) int { return i * b.N / b.P }

// Hi returns one past the last index of block i.
func (b Block1D) Hi(i int) int { return (i + 1) * b.N / b.P }

// Size returns the number of items in block i.
func (b Block1D) Size(i int) int { return b.Hi(i) - b.Lo(i) }

// Blocks implements Layout1D.
func (b Block1D) Blocks() int { return b.P }

// Items implements Layout1D.
func (b Block1D) Items() int { return b.N }

// Contig1D is a contiguous 1D layout with explicit block boundaries:
// block i holds [Offsets[i], Offsets[i+1]). Unlike Block1D the block
// sizes are arbitrary — typically the part sizes a graph partitioner
// produced, after relabeling vertices so each part is contiguous.
type Contig1D struct {
	// Offsets has one entry per block plus one: non-decreasing, starting
	// at 0, ending at the item count.
	Offsets []int
}

// NewContig1D validates and builds a contiguous layout from boundaries.
func NewContig1D(offsets []int) Contig1D {
	if len(offsets) < 2 || offsets[0] != 0 {
		panic(fmt.Sprintf("partition: invalid Contig1D offsets %v", offsets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("partition: Contig1D offsets %v decrease at %d", offsets, i))
		}
	}
	return Contig1D{Offsets: offsets}
}

// Blocks implements Layout1D.
func (c Contig1D) Blocks() int { return len(c.Offsets) - 1 }

// Items implements Layout1D.
func (c Contig1D) Items() int { return c.Offsets[len(c.Offsets)-1] }

// Lo implements Layout1D.
func (c Contig1D) Lo(i int) int { return c.Offsets[i] }

// Hi implements Layout1D.
func (c Contig1D) Hi(i int) int { return c.Offsets[i+1] }

// Size implements Layout1D.
func (c Contig1D) Size(i int) int { return c.Offsets[i+1] - c.Offsets[i] }

// Offsets1D returns the block boundaries of any Layout1D as the offsets
// slice BuildHaloPlan-style consumers expect: len Blocks()+1, starting at
// 0, ending at Items().
func Offsets1D(l Layout1D) []int {
	out := make([]int, l.Blocks()+1)
	for i := 0; i < l.Blocks(); i++ {
		out[i+1] = l.Hi(i)
	}
	return out
}

// Grid2D is a Pr x Pc process grid; processor (i, j) has linear rank
// i*Pc + j (row-major), matching the paper's P(i, j) indexing.
type Grid2D struct {
	Pr, Pc int
}

// NewSquareGrid returns the √P x √P grid, panicking if p is not a perfect
// square (the configuration the paper implements, §IV-C-6).
func NewSquareGrid(p int) Grid2D {
	s := intSqrt(p)
	if s*s != p {
		panic(fmt.Sprintf("partition: %d is not a perfect square", p))
	}
	return Grid2D{Pr: s, Pc: s}
}

// Size returns the total number of processes.
func (g Grid2D) Size() int { return g.Pr * g.Pc }

// Rank returns the linear rank of processor (i, j).
func (g Grid2D) Rank(i, j int) int {
	if i < 0 || i >= g.Pr || j < 0 || j >= g.Pc {
		panic(fmt.Sprintf("partition: grid coord (%d,%d) out of %dx%d", i, j, g.Pr, g.Pc))
	}
	return i*g.Pc + j
}

// Coords returns the (i, j) coordinates of a linear rank.
func (g Grid2D) Coords(rank int) (int, int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("partition: rank %d out of range for %dx%d grid", rank, g.Pr, g.Pc))
	}
	return rank / g.Pc, rank % g.Pc
}

// RowRanks returns the linear ranks of process row i, ordered by column.
func (g Grid2D) RowRanks(i int) []int {
	out := make([]int, g.Pc)
	for j := range out {
		out[j] = g.Rank(i, j)
	}
	return out
}

// ColRanks returns the linear ranks of process column j, ordered by row.
func (g Grid2D) ColRanks(j int) []int {
	out := make([]int, g.Pr)
	for i := range out {
		out[i] = g.Rank(i, j)
	}
	return out
}

// Grid3D is a C x C x D process mesh: D layers, each a C x C grid. Processor
// (i, j, k) — row i, column j, layer k — has linear rank k*C² + i*C + j, so
// a mesh of depth 1 numbers its ranks exactly like the C x C Grid2D. The
// Split-3D algorithm runs on the cube (D = C), 2D SUMMA on the single layer.
type Grid3D struct {
	C, D int
}

// NewGrid3D returns the ∛P x ∛P x ∛P mesh, panicking if p is not a perfect
// cube.
func NewGrid3D(p int) Grid3D {
	c := intCbrt(p)
	if c*c*c != p {
		panic(fmt.Sprintf("partition: %d is not a perfect cube", p))
	}
	return Grid3D{C: c, D: c}
}

// NewMesh returns the c x c x d mesh.
func NewMesh(c, d int) Grid3D {
	if c <= 0 || d <= 0 {
		panic(fmt.Sprintf("partition: invalid mesh %dx%dx%d", c, c, d))
	}
	return Grid3D{C: c, D: d}
}

// Size returns the total number of processes.
func (g Grid3D) Size() int { return g.C * g.C * g.D }

// Rank returns the linear rank of processor (i, j, k).
func (g Grid3D) Rank(i, j, k int) int {
	if i < 0 || i >= g.C || j < 0 || j >= g.C || k < 0 || k >= g.D {
		panic(fmt.Sprintf("partition: mesh coord (%d,%d,%d) out of %dx%dx%d", i, j, k, g.C, g.C, g.D))
	}
	return k*g.C*g.C + i*g.C + j
}

// Coords returns the (i, j, k) coordinates of a linear rank.
func (g Grid3D) Coords(rank int) (int, int, int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("partition: rank %d out of range for %dx%dx%d mesh", rank, g.C, g.C, g.D))
	}
	k := rank / (g.C * g.C)
	rem := rank % (g.C * g.C)
	return rem / g.C, rem % g.C, k
}

// LayerRowRanks returns the ranks of process row i within layer k, ordered
// by column.
func (g Grid3D) LayerRowRanks(i, k int) []int {
	out := make([]int, g.C)
	for j := range out {
		out[j] = g.Rank(i, j, k)
	}
	return out
}

// LayerColRanks returns the ranks of process column j within layer k,
// ordered by row.
func (g Grid3D) LayerColRanks(j, k int) []int {
	out := make([]int, g.C)
	for i := range out {
		out[i] = g.Rank(i, j, k)
	}
	return out
}

// FiberRanks returns the ranks along the fiber (third dimension) at grid
// position (i, j), ordered by layer.
func (g Grid3D) FiberRanks(i, j int) []int {
	out := make([]int, g.D)
	for k := range out {
		out[k] = g.Rank(i, j, k)
	}
	return out
}

// PlaneRanks returns every rank sharing grid column j, ordered by row and
// then by layer: at depth 1, LayerColRanks(j, 0).
func (g Grid3D) PlaneRanks(j int) []int {
	out := make([]int, 0, g.C*g.D)
	for i := 0; i < g.C; i++ {
		for k := 0; k < g.D; k++ {
			out = append(out, g.Rank(i, j, k))
		}
	}
	return out
}

func intSqrt(p int) int {
	s := 0
	for (s+1)*(s+1) <= p {
		s++
	}
	return s
}

func intCbrt(p int) int {
	c := 0
	for (c+1)*(c+1)*(c+1) <= p {
		c++
	}
	return c
}

// IsPerfectSquare reports whether p has an integer square root.
func IsPerfectSquare(p int) bool { s := intSqrt(p); return s*s == p }

// IsPerfectCube reports whether p has an integer cube root.
func IsPerfectCube(p int) bool { c := intCbrt(p); return c*c*c == p }
