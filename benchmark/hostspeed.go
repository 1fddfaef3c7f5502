package main

import (
	"sync"
	"time"
)

// The reference box is two vCPUs of a shared host, and how fast those run
// moves by 30–45 % over minutes with what the neighbours do: wall and CPU
// seconds of the same Train call move together (README.md, "What the host
// does"). A run is shorter than such a phase, so no estimator over a run's
// own samples can see it, and two runs of one commit differ by more than
// any bound the contract allows. Each pass therefore times, before every
// Train call and once at its end, a fixed sweep of the benchmark's own
// arithmetic, and the run's timings are reported on a host of nominal
// speed: divided by the run's host factor, the median of its passes' sweeps
// over hostNominalS. The sweep is the benchmark's code on the benchmark's
// operands, so no change to the program moves it.

// hostNominalS is what one sweep takes on the reference box while nothing
// else runs there; it only fixes the unit ("seconds on a host this fast").
const hostNominalS = 0.080

const (
	sweepScale = 13     // the sweep's graph has 2^13 vertices,
	sweepEdges = 184000 // this many R-MAT edges, stored in both directions,
	sweepWidth = 64     // and multiplies a dense block this wide
	sweepLanes = 2      // on as many workers as the box has cores
)

// hostSweep is the fixed work: sparse-times-dense products over a scale-free
// graph the size of serial_wide's, the kind of arithmetic an epoch is made
// of. Of the sweeps tried (in-cache multiply-add chains, streaming triads,
// products over uniformly random graphs) it is the one whose time moved
// with the host as much as an epoch's did (README.md, "Choosing the
// sweep"). Its operands, 14 MiB, come from a fixed generator, not from the
// run's seed or the program's generators.
type hostSweep struct {
	reps, stride   int     // passes over the rows; every stride-th row
	nominal        float64 // seconds one sweep takes at nominal speed
	rowPtr, colIdx []int
	x, y           []float64
	sweeps         []float64 // seconds, one per sweep
}

// newHostSweep builds the operands; quick cuts the sweep to a twentieth
// (one pass over every fourth row) for the in-process test pass.
func newHostSweep(quick bool) *hostSweep {
	const rows = 1 << sweepScale
	h := &hostSweep{
		reps: 5, stride: 1, nominal: hostNominalS,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, 2*sweepEdges),
		x:      make([]float64, rows*sweepWidth),
		y:      make([]float64, rows*sweepWidth),
	}
	if quick {
		h.reps, h.stride, h.nominal = 1, 4, hostNominalS/20
	}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	// R-MAT with the Graph500 quadrant weights 0.57, 0.19, 0.19, 0.05.
	edges := make([][2]int, 0, 2*sweepEdges)
	for e := 0; e < sweepEdges; e++ {
		u, v := 0, 0
		for half := rows / 2; half > 0; half /= 2 {
			switch r := next() % 100; {
			case r < 57:
			case r < 76:
				v += half
			case r < 95:
				u += half
			default:
				u, v = u+half, v+half
			}
		}
		edges = append(edges, [2]int{u, v}, [2]int{v, u})
		h.rowPtr[u+1]++
		h.rowPtr[v+1]++
	}
	for i := 0; i < rows; i++ {
		h.rowPtr[i+1] += h.rowPtr[i]
	}
	fill := append([]int(nil), h.rowPtr[:rows]...)
	for _, e := range edges {
		h.colIdx[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	for i := range h.x {
		h.x[i] = float64(next()%1024) / 1024
	}
	return h
}

// sweep does the fixed work once and keeps how long it took. Rows are
// split evenly by index, as they were in the sweep the choice rests on.
func (h *hostSweep) sweep() {
	const rows = 1 << sweepScale
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < sweepLanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < h.reps; r++ {
				for i := rows * l / sweepLanes; i < rows*(l+1)/sweepLanes; i += h.stride {
					yi := h.y[i*sweepWidth : (i+1)*sweepWidth]
					clear(yi)
					for _, c := range h.colIdx[h.rowPtr[i]:h.rowPtr[i+1]] {
						xr := h.x[c*sweepWidth : (c+1)*sweepWidth]
						for j := range yi {
							yi[j] += 0.03125 * xr[j]
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	h.sweeps = append(h.sweeps, time.Since(start).Seconds())
}
