package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// digest is the FNV-64a hash of a graph's vertex count and edge list, in
// order: it moves if a generator draws differently from its RNG stream or
// emits its edges in another order.
func digest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(g.NumVertices)
	for _, e := range g.Edges {
		put(e[0])
		put(e[1])
	}
	return h.Sum64()
}

// drawsDigest is the FNV-64a hash of a dataset's feature bits and labels,
// the draws AnalogSpec.Build makes after its R-MAT: it moves if the R-MAT
// leaves the RNG anywhere but where one goroutine drawing edge by edge
// would.
func drawsDigest(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range d.Features.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, l := range d.Labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// atWorkerCounts runs f with the shared pool at one worker, two and the
// machine's count, restoring the pool size when the test ends.
func atWorkerCounts(t *testing.T, f func(workers int)) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		parallel.SetWorkers(w)
		f(w)
	}
}

// TestGeneratorGoldenDigests pins each generator's output for one fixed
// input, and where it leaves the RNG, at every worker count: every
// dataset, loss and ledger word in the repo hangs off these edge lists. The
// values predate the preallocation of the edge lists and the R-MAT
// producer goroutine, neither of which may show in them.
func TestGeneratorGoldenDigests(t *testing.T) {
	atWorkerCounts(t, func(workers int) {
		rmatRNG, communityRNG := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		build := AnalogSpec{Scale: 8, EdgeFactor: 6, Features: 2, Hidden: 2, Labels: 2, Seed: 7}.Build()
		for _, tc := range []struct {
			name  string
			g     *Graph
			edges int
			want  uint64
			// next is the RNG's next Int63, or for Build the digest of the
			// features and labels drawn after the R-MAT.
			next, wantNext uint64
		}{
			{"RMAT(8, 6, seed 7)", RMAT(8, 6, DefaultRMAT, rmatRNG), 1499, 0x74417084f061135f, uint64(rmatRNG.Int63()), 0xb24b0d24d2be7dd},
			{"CommunityRMAT(4, 5, 6, 2, seed 7)", CommunityRMAT(4, 5, 6, 2, communityRNG), 1902, 0xb19251e9c96dbba5, uint64(communityRNG.Int63()), 0x4e37b66e5755b4c6},
			{"AnalogSpec{8, 6, seed 7}.Build", build.Graph, 2998, 0x67a9cd39dbd4080a, drawsDigest(build), 0x320fab6e393a51d2},
		} {
			if got := digest(tc.g); got != tc.want || len(tc.g.Edges) != tc.edges || tc.next != tc.wantNext {
				t.Errorf("%s at %d workers: %d edges, digest %#x, then %#x; want %d edges, %#x, then %#x",
					tc.name, workers, len(tc.g.Edges), got, tc.next, tc.edges, tc.want, tc.wantNext)
			}
		}
	})
}

// rmatOneGoroutine is RMAT as one goroutine draws it, edge by edge: the
// definition the producer and its chunks must reproduce.
func rmatOneGoroutine(scale, edgeFactor int, cfg RMATConfig, rng *rand.Rand) *Graph {
	n := 1 << uint(scale)
	g := New(n)
	for e := 0; e < edgeFactor*n; e++ {
		u, v := 0, 0
		for level := 0; level < scale; level++ {
			x := [4]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			du, dv := switchLevel(cfg, x[:])
			half := 1 << uint(scale-level-1)
			u, v = u+du*half, v+dv*half
		}
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// switchLevel is one level of the R-MAT definition: the quadrant weights a,
// b, c perturbed by the draws x[0], x[1], x[2], then r, the draw x[3]
// scaled to the weights' sum, picks the first quadrant whose test holds —
// top-left, top-right, bottom-left, else bottom-right. It returns the row
// and the column bit of that quadrant.
func switchLevel(cfg RMATConfig, x []float64) (du, dv int) {
	a := cfg.A * (1 + cfg.Noise*(x[0]-0.5))
	b := cfg.B * (1 + cfg.Noise*(x[1]-0.5))
	c := cfg.C * (1 + cfg.Noise*(x[2]-0.5))
	sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
	r := x[3] * sum
	switch {
	case r < a:
		return 0, 0
	case r < a+b:
		return 0, 1
	case r < a+b+c:
		return 1, 0
	}
	return 1, 1
}

// switchEdges is rmatEdges by the definition: the edges, as (e, u, v), that
// the draws d place when switchLevel picks each level's quadrant.
func switchEdges(scale int, cfg RMATConfig, d []float64) [][3]int {
	var edges [][3]int
	for e := 0; len(d) > 0; d, e = d[4*scale:], e+1 {
		u, v := 0, 0
		for level := 0; level < scale; level++ {
			du, dv := switchLevel(cfg, d[4*level:4*level+4])
			u, v = u<<1|du, v<<1|dv
		}
		if u != v {
			edges = append(edges, [3]int{e, u, v})
		}
	}
	return edges
}

// TestQuadrantMatchesSwitch: rmatEdges's two-bit quadrant pick places every
// edge where switchLevel's first-match switch places it, on draws where the
// two could part. The golden digests see only DefaultRMAT, whose weights
// are positive, where the order of the tests cannot show. The hand-built
// edges have scale 2: the first level's draws are under test, the second's
// pick top-right, so no first-level quadrant turns the edge into a dropped
// self-loop. The first level's fourth draw, r's, runs over a grid of
// sixteenths, each point and the float below it, and NaN, against these
// weights:
//   - Noise 0, where the sum is 1 and r lands exactly on a, a+b and a+b+c;
//   - Noise 0 with one weight's draw NaN, so that weight is NaN;
//   - Noise 4 (> 2), where a draw of 0 makes b < 0 (so a+b < a, and
//     u = r ≥ a+b would move the edges with a+b ≤ r < a), c < 0, or both.
//
// Random draws follow at Noise 0, 0.1, 4 and NaN, and RMAT matches the
// one-goroutine definition, edges and RNG position, at Noise 4 and NaN
// (where every weight is NaN, every level bottom-right and every edge a
// self-loop).
func TestQuadrantMatchesSwitch(t *testing.T) {
	check := func(name string, scale int, cfg RMATConfig, d []float64) {
		t.Helper()
		var got [][3]int
		rmatEdges(scale, cfg, 0, d, func(e, u, v int) { got = append(got, [3]int{e, u, v}) })
		want := switchEdges(scale, cfg, d)
		if len(got) != len(want) {
			t.Fatalf("%s: rmatEdges placed %d edges, the switch %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: edge %d placed at (%d, %d), the switch places it at (%d, %d)",
					name, want[i][0], got[i][1], got[i][2], want[i][1], want[i][2])
			}
		}
	}
	nan := math.NaN()
	var rs []float64
	for i := 0; i <= 16; i++ {
		rs = append(rs, float64(i)/16, math.Nextafter(float64(i)/16, -1))
	}
	rs = append(rs, nan)
	topRight := []float64{0.5, 0.5, 0.5, 0.6} // a, b, c unperturbed at Noise 0 and 4
	exact := RMATConfig{A: 0.5, B: 0.25, C: 0.125}
	for _, tc := range []struct {
		name    string
		cfg     RMATConfig
		weights [3]float64 // the first level's draws for a, b, c
	}{
		{"Noise 0", exact, [3]float64{0.5, 0.5, 0.5}},
		{"Noise 0, a NaN", exact, [3]float64{nan, 0.5, 0.5}},
		{"Noise 0, b NaN", exact, [3]float64{0.5, nan, 0.5}},
		{"Noise 0, c NaN", exact, [3]float64{0.5, 0.5, nan}},
		{"Noise 4, B < 0", RMATConfig{A: 0.5, B: 0.25, C: 0.125, Noise: 4}, [3]float64{0.5, 0, 0.5}},
		{"Noise 4, C < 0", RMATConfig{A: 0.5, B: 0.25, C: 0.125, Noise: 4}, [3]float64{0.5, 0.5, 0}},
		{"Noise 4, B < 0 and C < 0", RMATConfig{A: 0.5, B: 0.25, C: 0.125, Noise: 4}, [3]float64{1, 0, 0}},
	} {
		var d []float64
		for _, r := range rs {
			d = append(d, tc.weights[0], tc.weights[1], tc.weights[2], r)
			d = append(d, topRight...)
		}
		if got := len(switchEdges(2, tc.cfg, d)); got != len(rs) {
			t.Fatalf("%s: the switch places %d of %d hand-built edges; each must be placed", tc.name, got, len(rs))
		}
		check(tc.name, 2, tc.cfg, d)
	}
	rng := rand.New(rand.NewSource(5))
	for _, noise := range []float64{0, 0.1, 4, nan} {
		cfg := DefaultRMAT
		cfg.Noise = noise
		d := make([]float64, 4*5*4000)
		for i := range d {
			d[i] = rng.Float64()
		}
		check(fmt.Sprintf("random draws at Noise %v", noise), 5, cfg, d)
	}
	for _, noise := range []float64{4, nan} {
		cfg := DefaultRMAT
		cfg.Noise = noise
		wantRNG, gotRNG := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		want, got := rmatOneGoroutine(10, 7, cfg, wantRNG), RMAT(10, 7, cfg, gotRNG)
		if len(got.Edges) != len(want.Edges) || digest(got) != digest(want) {
			t.Fatalf("RMAT(10, 7) at Noise %v: %d edges, digest %#x; want %d, %#x", noise, len(got.Edges), digest(got), len(want.Edges), digest(want))
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("RMAT(10, 7) at Noise %v: next Int63 %#x, want %#x", noise, g, w)
		}
	}
}

// buildOneGoroutine is AnalogSpec.Build by the definition: the
// one-goroutine R-MAT, then a second loop that stores each of its edges in
// both directions, then the features and the labels, all drawn from rng.
func buildOneGoroutine(s AnalogSpec, rng *rand.Rand) *Dataset {
	g := rmatOneGoroutine(s.Scale, s.EdgeFactor, DefaultRMAT, rng)
	sym := New(g.NumVertices)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	feats := dense.New(sym.NumVertices, s.Features)
	feats.RandomInit(rng, 1.0)
	labels := make([]int, sym.NumVertices)
	for i := range labels {
		labels[i] = rng.Intn(s.Labels)
	}
	return &Dataset{Graph: sym, Features: feats, Labels: labels}
}

// TestBuildMatchesOneGoroutine: at every worker count, Build's edge list and
// its features and labels (so the RNG's position after the R-MAT) are those
// of buildOneGoroutine, and undirectedRMAT leaves its RNG where the
// definition's R-MAT does. The sizes follow rmatChunkDraws: fewer edges than
// one chunk holds, several chunks with a ragged last one (on the producer
// at two workers), scale 0 and edge factor 0.
func TestBuildMatchesOneGoroutine(t *testing.T) {
	batch := func(scale int) int { return rmatChunkDraws / (4 * scale) } // edges per chunk, as rmat sizes them
	raggedEF := 2*batch(9)>>9 + 1
	if edges := raggedEF << 9; edges <= batch(9) || edges%batch(9) == 0 {
		t.Fatalf("scale 9, edge factor %d: %d edges in chunks of %d is not several chunks with a ragged last", raggedEF, edges, batch(9))
	}
	if edges := 1 << 5; edges >= batch(5) {
		t.Fatalf("scale 5, edge factor 1: %d edges fill a chunk of %d", edges, batch(5))
	}
	atWorkerCounts(t, func(workers int) {
		for _, tc := range [][2]int{{5, 1}, {9, raggedEF}, {0, 5}, {4, 0}} {
			s := AnalogSpec{Scale: tc[0], EdgeFactor: tc[1], Features: 3, Hidden: 2, Labels: 5, Seed: 11}
			name := fmt.Sprintf("AnalogSpec{scale %d, edge factor %d} at %d workers", tc[0], tc[1], workers)
			want, got := buildOneGoroutine(s, rand.New(rand.NewSource(s.Seed))), s.Build()
			if got.Graph.NumVertices != want.Graph.NumVertices || len(got.Graph.Edges) != len(want.Graph.Edges) || digest(got.Graph) != digest(want.Graph) {
				t.Fatalf("%s: %d vertices, %d edges, digest %#x; want %d, %d, %#x", name,
					got.Graph.NumVertices, len(got.Graph.Edges), digest(got.Graph), want.Graph.NumVertices, len(want.Graph.Edges), digest(want.Graph))
			}
			if g, w := drawsDigest(got), drawsDigest(want); g != w {
				t.Fatalf("%s: features and labels digest %#x, want %#x", name, g, w)
			}
			wantRNG, gotRNG := rand.New(rand.NewSource(s.Seed)), rand.New(rand.NewSource(s.Seed))
			rmatOneGoroutine(tc[0], tc[1], DefaultRMAT, wantRNG)
			if g := undirectedRMAT(tc[0], tc[1], gotRNG); digest(g) != digest(got.Graph) {
				t.Fatalf("%s: undirectedRMAT digest %#x, Build's graph %#x", name, digest(g), digest(got.Graph))
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%s: next Int63 after undirectedRMAT %#x, want %#x", name, g, w)
			}
		}
	})
}

// communityOneGoroutine is CommunityRMAT as one goroutine draws it, one
// community's R-MAT after another, then the cross-community edges.
func communityOneGoroutine(k, scalePer, localFactor, globalFactor int, rng *rand.Rand) *Graph {
	per := 1 << uint(scalePer)
	n := k * per
	g := New(n)
	for c := 0; c < k; c++ {
		for _, e := range rmatOneGoroutine(scalePer, localFactor, DefaultRMAT, rng).Edges {
			g.AddUndirectedEdge(c*per+e[0], c*per+e[1])
		}
	}
	for i := 0; i < n*globalFactor; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddUndirectedEdge(u, v)
		}
	}
	return g
}

// TestRMATMatchesOneGoroutine: at every worker count, RMAT's edge list and
// the RNG's next Int63 are the one-goroutine definition's: at scale 0 and
// at edge factor 0 (no draws at all), at scale 1 (four draws an edge), with
// fewer edges than one chunk holds, and with edge counts that are not a
// multiple of the chunk's and run on the producer at two workers. So are
// CommunityRMAT's, whose communities' draws are one stream, on the
// producer and inline.
func TestRMATMatchesOneGoroutine(t *testing.T) {
	atWorkerCounts(t, func(workers int) {
		for _, tc := range [][4]int{{8, 6, 10, 1}, {3, 2, 5, 2}, {4, 0, 3, 1}, {2, 4, 0, 1}} {
			name := fmt.Sprintf("CommunityRMAT%v at %d workers", tc, workers)
			wantRNG, gotRNG := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			want, got := communityOneGoroutine(tc[0], tc[1], tc[2], tc[3], wantRNG), CommunityRMAT(tc[0], tc[1], tc[2], tc[3], gotRNG)
			if len(got.Edges) != len(want.Edges) || digest(got) != digest(want) {
				t.Fatalf("%s: %d edges, digest %#x; want %d, %#x", name, len(got.Edges), digest(got), len(want.Edges), digest(want))
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%s: next Int63 %#x, want %#x", name, g, w)
			}
		}
		for _, tc := range [][2]int{{0, 5}, {3, 0}, {1, 4}, {5, 3}, {10, 7}, {12, 9}} {
			scale, ef := tc[0], tc[1]
			name := fmt.Sprintf("RMAT(%d, %d) at %d workers", scale, ef, workers)
			wantRNG, gotRNG := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			want, got := rmatOneGoroutine(scale, ef, DefaultRMAT, wantRNG), RMAT(scale, ef, DefaultRMAT, gotRNG)
			if got.NumVertices != want.NumVertices || len(got.Edges) != len(want.Edges) || digest(got) != digest(want) {
				t.Fatalf("%s: %d edges, digest %#x; want %d, %#x", name, len(got.Edges), digest(got), len(want.Edges), digest(want))
			}
			if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
				t.Fatalf("%s: next Int63 %#x, want %#x", name, g, w)
			}
		}
	})
}
