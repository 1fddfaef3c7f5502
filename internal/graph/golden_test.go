package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

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
			a := cfg.A * (1 + cfg.Noise*(rng.Float64()-0.5))
			b := cfg.B * (1 + cfg.Noise*(rng.Float64()-0.5))
			c := cfg.C * (1 + cfg.Noise*(rng.Float64()-0.5))
			sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
			r := rng.Float64() * sum
			half := 1 << uint(scale-level-1)
			switch {
			case r < a:
			case r < a+b:
				v += half
			case r < a+b+c:
				u += half
			default:
				u += half
				v += half
			}
		}
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
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
