package core

import (
	"math/rand"
	"testing"
)

// TestRandomizedEquivalenceSweep drives the equivalence invariant across
// randomized problem shapes: random graph sizes, layer widths, epochs, and
// rank counts. Any reduction-ordering or block-boundary bug in a trainer
// shows up here long before it would on the curated cases.
func TestRandomizedEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		n := 24 + rng.Intn(50)
		f := 2 + rng.Intn(8)
		hidden := 2 + rng.Intn(8)
		labels := 2 + rng.Intn(6)
		epochs := 1 + rng.Intn(3)
		p := testProblem(t, n, f, hidden, labels, epochs, int64(1000+trial))

		oneDRanks := []int{2, 3, 4, 5, 6}[rng.Intn(5)]
		squareRanks := []int{1, 4, 9}[rng.Intn(3)]
		cubeRanks := []int{1, 8}[rng.Intn(2)]
		oneFiveC := 1 + rng.Intn(2)

		checkEquivalence(t, NewOneD(oneDRanks, testMach), p)
		checkEquivalence(t, NewOneFiveD(oneFiveC*2, oneFiveC, testMach), p)
		checkEquivalence(t, NewTwoD(squareRanks, testMach), p)
		checkEquivalence(t, NewThreeD(cubeRanks, testMach), p)
	}
}
