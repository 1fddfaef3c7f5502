package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
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

// TestGeneratorGoldenDigests pins each generator's output for one fixed
// input: every dataset, loss and ledger word in the repo hangs off these
// edge lists. The values predate the preallocation of the edge lists,
// which must not show in them.
func TestGeneratorGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *Graph
		edges int
		want  uint64
	}{
		{"RMAT(8, 6, seed 7)", RMAT(8, 6, DefaultRMAT, rand.New(rand.NewSource(7))), 1499, 0x74417084f061135f},
		{"CommunityRMAT(4, 5, 6, 2, seed 7)", CommunityRMAT(4, 5, 6, 2, rand.New(rand.NewSource(7))), 1902, 0xb19251e9c96dbba5},
		{"AnalogSpec{8, 6, seed 7}.Build", AnalogSpec{Scale: 8, EdgeFactor: 6, Features: 2, Hidden: 2, Labels: 2, Seed: 7}.Build().Graph, 2998, 0x67a9cd39dbd4080a},
	} {
		if got := digest(tc.g); got != tc.want || len(tc.g.Edges) != tc.edges {
			t.Errorf("%s: %d edges, digest %#x; want %d edges, %#x", tc.name, len(tc.g.Edges), got, tc.edges, tc.want)
		}
	}
}
