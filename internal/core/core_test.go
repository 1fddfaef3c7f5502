package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// testMach keeps cost constants simple for tests.
var testMach = costmodel.Machine{
	Name: "test", Alpha: 1e-6, Beta: 1e-9, GEMMRate: 1e9, SpMMRate: 1e9, MiscOverhead: 0,
}

// testProblemGraph builds a deterministic small training problem and also
// returns the underlying (symmetrized) graph for partitioner-driven tests.
func testProblemGraph(t testing.TB, n, f, hidden, labels, epochs int, seed int64) (Problem, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ErdosRenyi(n, 6, rng)
	// Symmetrize so the same problem works for the 3D trainer.
	sym := graph.New(n)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	ds := graph.Synthetic("test", sym, f, hidden, labels, seed+1)
	return Problem{
		A:        ds.Graph.NormalizedAdjacency(),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config: nn.Config{
			Widths: []int{f, hidden, labels},
			LR:     0.05,
			Epochs: epochs,
			Seed:   seed + 2,
		},
	}, sym
}

// testProblem builds a deterministic small training problem.
func testProblem(t testing.TB, n, f, hidden, labels, epochs int, seed int64) Problem {
	t.Helper()
	p, _ := testProblemGraph(t, n, f, hidden, labels, epochs, seed)
	return p
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, 20, 5, 4, 3, 1, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Labels = p.Labels[:10]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected label-length error")
	}
	bad = p
	bad.Features = dense.New(20, 99)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected feature-width error")
	}
	for _, widths := range [][]int{{5}, {5, -1, 3}} {
		bad = p
		bad.Config.Widths = widths
		if err := bad.Validate(); err == nil {
			t.Fatalf("expected width error for %v", widths)
		}
	}
	bad = p
	bad.A = sparse.NewCSR(3, 4, nil)
	if err := bad.Validate(); err == nil {
		t.Fatal("expected square-adjacency error")
	}
	bad = p
	lbl := append([]int(nil), p.Labels...)
	lbl[0] = 99
	bad.Labels = lbl
	if err := bad.Validate(); err == nil {
		t.Fatal("expected label-range error")
	}
}

func TestSerialLossDecreases(t *testing.T) {
	p := testProblem(t, 60, 8, 6, 4, 30, 3)
	res, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 30 {
		t.Fatalf("got %d losses", len(res.Losses))
	}
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("accuracy = %v", res.Accuracy)
	}
	if res.Output.Rows != 60 || res.Output.Cols != 4 {
		t.Fatalf("output shape %dx%d", res.Output.Rows, res.Output.Cols)
	}
}

func TestSerialDeterministic(t *testing.T) {
	p := testProblem(t, 30, 6, 5, 3, 5, 4)
	a, _ := NewSerial().Train(p)
	b, _ := NewSerial().Train(p)
	if dense.MaxAbsDiff(a.Output, b.Output) != 0 {
		t.Fatal("serial training must be deterministic")
	}
}

// TestSerialGradientNumerical validates the full backward pass against
// numerical differentiation of the loss with respect to every weight.
func TestSerialGradientNumerical(t *testing.T) {
	p := testProblem(t, 12, 4, 3, 3, 1, 5)
	p.Config.Epochs = 1
	p.Config.LR = 1.0 // after one epoch, W' = W - dW exactly

	cfg := p.Config.WithDefaults()
	w0 := nn.InitWeights(cfg)
	res, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the analytic gradient dW = (W0 - W1)/lr.
	for l := range w0 {
		analytic := dense.New(w0[l].Rows, w0[l].Cols)
		dense.Sub(analytic, w0[l], res.Weights[l])

		// Numerical gradient of the initial loss wrt W^l.
		at := p.A.Transpose()
		lossAt := func(weights []*dense.Matrix) float64 {
			n := p.A.Rows
			h := p.Features
			for layer := 1; layer <= cfg.Layers(); layer++ {
				tmp := dense.New(n, cfg.Widths[layer-1])
				sparse.SpMM(tmp, at, h)
				z := dense.New(n, cfg.Widths[layer])
				dense.Mul(z, tmp, weights[layer-1])
				h = dense.New(n, cfg.Widths[layer])
				cfg.Activation(layer).Forward(h, z)
			}
			loss, _ := nn.NLLLoss(h, p.Labels, 0, n)
			return loss
		}
		const hstep = 1e-6
		for idx := 0; idx < len(w0[l].Data); idx += 3 { // sample every 3rd
			wp := make([]*dense.Matrix, len(w0))
			wm := make([]*dense.Matrix, len(w0))
			for j := range w0 {
				wp[j] = nn.InitWeights(cfg)[j]
				wm[j] = nn.InitWeights(cfg)[j]
			}
			wp[l].Data[idx] += hstep
			wm[l].Data[idx] -= hstep
			num := (lossAt(wp) - lossAt(wm)) / (2 * hstep)
			if math.Abs(num-analytic.Data[idx]) > 1e-5 {
				t.Fatalf("layer %d weight %d: analytic %v vs numerical %v",
					l, idx, analytic.Data[idx], num)
			}
		}
	}
}

// equivTol is the allowed deviation between distributed and serial results;
// distributed reductions reorder floating-point sums.
const equivTol = 1e-8

// checkEquivalence trains p with trainer and requires its run to match the
// serial reference (requireNear at equivTol). It returns the trainer's
// result.
func checkEquivalence(t *testing.T, trainer Trainer, p Problem) *Result {
	t.Helper()
	got, err := trainer.Train(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSerial().Train(p)
	if err != nil {
		t.Fatal(err)
	}
	requireNear(t, trainer.Name(), got, want, equivTol)
	return got
}

// requireNear requires outputs, losses and weights of got, the named run,
// within tol of want's, a serial run of the same problem, and the
// accuracies — per epoch too, when the problem has a ValMask — within
// 1e-12: the paper's §V-A verification. Both runs must be finite
// throughout: a distance to NaN is NaN, which no "> tol" test catches.
func requireNear(t *testing.T, name string, got, want *Result, tol float64) {
	t.Helper()
	requireFinite(t, name, got)
	requireFinite(t, name+"'s serial reference", want)
	if d := dense.MaxAbsDiff(got.Output, want.Output); d > tol {
		t.Fatalf("%s output deviates from serial by %v", name, d)
	}
	for l := range want.Weights {
		if d := dense.MaxAbsDiff(got.Weights[l], want.Weights[l]); d > tol {
			t.Fatalf("%s W[%d] deviates from serial by %v", name, l, d)
		}
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%s epochs: %d vs %d", name, len(got.Losses), len(want.Losses))
	}
	for e := range want.Losses {
		if math.Abs(got.Losses[e]-want.Losses[e]) > tol {
			t.Fatalf("%s epoch %d loss %v vs serial %v", name, e, got.Losses[e], want.Losses[e])
		}
	}
	if math.Abs(got.Accuracy-want.Accuracy) > 1e-12 {
		t.Fatalf("%s accuracy %v vs serial %v", name, got.Accuracy, want.Accuracy)
	}
	if len(got.TrainAccuracy) != len(want.TrainAccuracy) || len(got.ValAccuracy) != len(want.ValAccuracy) {
		t.Fatalf("%s tracked %d/%d epochs of accuracy, serial %d/%d", name,
			len(got.TrainAccuracy), len(got.ValAccuracy), len(want.TrainAccuracy), len(want.ValAccuracy))
	}
	for e := range want.ValAccuracy {
		if math.Abs(got.TrainAccuracy[e]-want.TrainAccuracy[e]) > 1e-12 || math.Abs(got.ValAccuracy[e]-want.ValAccuracy[e]) > 1e-12 {
			t.Fatalf("%s epoch %d accuracy (train %v, val %v) vs serial (%v, %v)", name,
				e, got.TrainAccuracy[e], got.ValAccuracy[e], want.TrainAccuracy[e], want.ValAccuracy[e])
		}
	}
}

// requireFinite fails unless every output element, weight and per-epoch
// loss of the named run is finite.
func requireFinite(t *testing.T, name string, r *Result) {
	t.Helper()
	finite := func(what string, xs []float64) {
		t.Helper()
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: %s[%d] = %v", name, what, i, v)
			}
		}
	}
	finite("output", r.Output.Data)
	for l, w := range r.Weights {
		finite(fmt.Sprintf("W[%d]", l), w.Data)
	}
	finite("loss", r.Losses)
}

func TestOneDUnevenBlocks(t *testing.T) {
	// n not divisible by p.
	p := testProblem(t, 41, 5, 4, 3, 3, 12)
	checkEquivalence(t, NewOneD(6, testMach), p)
}

func TestTwoDUnevenBlocks(t *testing.T) {
	// n, f, hidden, labels all indivisible by √P = 3.
	p := testProblem(t, 47, 7, 5, 4, 3, 14)
	checkEquivalence(t, NewTwoD(9, testMach), p)
}

func TestTwoDNonSquareRankCountRejected(t *testing.T) {
	p := testProblem(t, 20, 4, 3, 2, 1, 15)
	if _, err := NewTwoD(12, testMach).Train(p); err == nil {
		t.Fatal("expected error for non-square rank count")
	}
}

func TestThreeDUnevenBlocks(t *testing.T) {
	p := testProblem(t, 53, 7, 5, 4, 3, 17)
	checkEquivalence(t, NewThreeD(8, testMach), p)
}

func TestThreeDNonCubeRankCountRejected(t *testing.T) {
	p := testProblem(t, 20, 4, 3, 2, 1, 18)
	if _, err := NewThreeD(9, testMach).Train(p); err == nil {
		t.Fatal("expected error for non-cube rank count")
	}
}

// rowTrainerModes returns the block-row trainer at P = 4 in every
// {1d, 1.5d c = 1, 1.5d c = 2} × {halo} combination, keyed by a subtest
// name: the algorithm alone for the plain broadcast mode, with "/halo"
// appended otherwise.
func rowTrainerModes() map[string]func() *rowTrainer {
	modes := map[string]func() *rowTrainer{}
	for name, mk := range map[string]func() *rowTrainer{
		"1d":       func() *rowTrainer { return NewOneD(4, testMach) },
		"1.5d/c=1": func() *rowTrainer { return NewOneFiveD(4, 1, testMach) },
		"1.5d/c=2": func() *rowTrainer { return NewOneFiveD(4, 2, testMach) },
	} {
		for suffix, halo := range map[string]bool{"": false, "/halo": true} {
			modes[name+suffix] = func() *rowTrainer {
				tr := mk()
				tr.Halo = halo
				return tr
			}
		}
	}
	return modes
}

// TestThreeDTrainsDirectedGraphs: the 3D mesh transposes iff A ≠ Aᵀ, as
// the 2D one does, so it trains a directed adjacency — a row-normalized
// directed R-MAT, asymmetric in structure and in value, and a symmetric
// structure with one skewed value — to the serial model within equivTol,
// as it trains the same graph symmetrized, and so does the block-row
// trainer.
func TestThreeDTrainsDirectedGraphs(t *testing.T) {
	g := graph.RMAT(6, 4, graph.DefaultRMAT, rand.New(rand.NewSource(23)))
	ds := graph.Synthetic("directed-rmat", g, 6, 4, 3, 24)
	p := Problem{
		A:        sparse.RowStochastic(ds.Graph.Adjacency()),
		Features: ds.Features,
		Labels:   ds.Labels,
		Config:   nn.Config{Widths: []int{6, 4, 3}, LR: 0.05, Epochs: 1, Seed: 25},
	}
	sym := graph.New(g.NumVertices)
	for _, e := range g.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	undirected := p
	undirected.A = sym.NormalizedAdjacency()
	skewed := undirected
	skewed.A = undirected.A.Clone()
	for k := skewed.A.RowPtr[0]; k < skewed.A.RowPtr[1]; k++ {
		if skewed.A.ColIdx[k] != 0 {
			skewed.A.Val[k] *= 1.5 // A[0,j] ≠ A[j,0], structure intact
			break
		}
	}
	for name, prob := range map[string]Problem{"directed": p, "asymmetric values": skewed, "symmetric": undirected} {
		if directed := !symmetric(prob.A); directed != (name != "symmetric") {
			t.Fatalf("%s adjacency: symmetric finds A ≠ Aᵀ = %v", name, directed)
		}
		t.Run(name, func(t *testing.T) {
			checkEquivalence(t, NewThreeD(8, testMach), prob)
			checkEquivalence(t, NewOneFiveD(4, 2, testMach), prob)
		})
	}
}

// symmetricByTranspose is symmetric's definition: A and Aᵀ hold the same
// entries, and each pair of values agrees within symmetric's tolerance.
func symmetricByTranspose(a *sparse.CSR) bool {
	at := a.Transpose()
	for i := range a.RowPtr {
		if a.RowPtr[i] != at.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		v, w := a.Val[k], at.Val[k]
		if a.ColIdx[k] != at.ColIdx[k] || math.Abs(v-w) > 1e-12*math.Max(math.Abs(v), math.Abs(w)) {
			return false
		}
	}
	return true
}

// TestSymmetricMatchesTranspose: symmetric, which reads only the entries
// above the diagonal and their mirrors, gives symmetricByTranspose's
// verdict on the edge cases — 0×0, diagonal only, empty rows, an entry
// below the diagonal in the last row with no mirror (no entry above the
// diagonal leads to it: a scan that skipped the entries below the diagonal
// instead of starting at its row's first unread entry would miss it), one
// above the diagonal with no mirror, a mirror 1e-14 off (symmetric) and 1e-10 off (not), a directed
// and a symmetrised Erdős–Rényi graph — and on random matrices of up to 7
// rows, where each off-diagonal pair is mirrored, one-sided either way, or
// mirrored off by 1e-14 or 1e-10.
func TestSymmetricMatchesTranspose(t *testing.T) {
	square := func(n int, entries ...sparse.Coord) *sparse.CSR { return sparse.NewCSR(n, n, entries) }
	er := graph.ErdosRenyi(40, 3, rand.New(rand.NewSource(19)))
	sym := graph.New(er.NumVertices)
	for _, e := range er.Edges {
		sym.AddUndirectedEdge(e[0], e[1])
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		want bool
	}{
		{"0x0", square(0), true},
		{"diagonal only", square(3, sparse.Coord{Row: 0, Col: 0, Val: 1}, sparse.Coord{Row: 1, Col: 1, Val: 2}, sparse.Coord{Row: 2, Col: 2, Val: 3}), true},
		{"empty rows", square(5, sparse.Coord{Row: 0, Col: 3, Val: 1}, sparse.Coord{Row: 3, Col: 0, Val: 1}, sparse.Coord{Row: 2, Col: 2, Val: 4}), true},
		{"unmatched below the diagonal in the last row", square(4, sparse.Coord{Row: 0, Col: 1, Val: 1}, sparse.Coord{Row: 1, Col: 0, Val: 1}, sparse.Coord{Row: 3, Col: 2, Val: 1}), false},
		{"unmatched above the diagonal", square(4, sparse.Coord{Row: 0, Col: 1, Val: 1}, sparse.Coord{Row: 1, Col: 0, Val: 1}, sparse.Coord{Row: 1, Col: 3, Val: 1}), false},
		{"mirror off by 1e-14", square(3, sparse.Coord{Row: 0, Col: 2, Val: 0.3}, sparse.Coord{Row: 2, Col: 0, Val: 0.3 * (1 + 1e-14)}), true},
		{"mirror off by 1e-10", square(3, sparse.Coord{Row: 0, Col: 2, Val: 0.3}, sparse.Coord{Row: 2, Col: 0, Val: 0.3 * (1 + 1e-10)}), false},
		{"directed ErdosRenyi", er.Adjacency(), false},
		{"symmetrised ErdosRenyi", sym.NormalizedAdjacency(), true},
	} {
		if got, def := symmetric(tc.a), symmetricByTranspose(tc.a); got != tc.want || def != tc.want {
			t.Errorf("%s: symmetric %v, by transpose %v; want %v", tc.name, got, def, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(23))
	var verdicts [2]int
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(8)
		var entries []sparse.Coord
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if rng.Intn(3) != 0 {
					continue
				}
				v := float64(1 + rng.Intn(4))
				if i == j {
					entries = append(entries, sparse.Coord{Row: i, Col: i, Val: v})
					continue
				}
				upper, lower := sparse.Coord{Row: i, Col: j, Val: v}, sparse.Coord{Row: j, Col: i, Val: v}
				switch rng.Intn(16) {
				case 0:
					entries = append(entries, upper)
				case 1:
					entries = append(entries, lower)
				case 2:
					lower.Val *= 1 + 1e-10
					entries = append(entries, upper, lower)
				case 3:
					lower.Val *= 1 + 1e-14
					entries = append(entries, upper, lower)
				default:
					entries = append(entries, upper, lower)
				}
			}
		}
		a := square(n, entries...)
		want := symmetricByTranspose(a)
		if got := symmetric(a); got != want {
			t.Fatalf("trial %d, %d×%d with entries %v: symmetric %v, by transpose %v", trial, n, n, entries, got, want)
		}
		if want {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] < 300 || verdicts[1] < 300 {
		t.Fatalf("random matrices: %d not symmetric, %d symmetric; each verdict needs at least 300 of 3000", verdicts[0], verdicts[1])
	}
}

// TestTrainersWithIdentityOutput exercises the element-wise-output path
// (no all-gather needed anywhere).
func TestTrainersElementwiseOutput(t *testing.T) {
	p := testProblem(t, 36, 6, 4, 3, 3, 22)
	p.Config.Output = dense.Identity{}
	checkEquivalence(t, NewOneD(4, testMach), p)
	checkEquivalence(t, NewTwoD(4, testMach), p)
	checkEquivalence(t, NewThreeD(8, testMach), p)
}

func TestNewTrainerFactory(t *testing.T) {
	for name, ranks := range map[string]int{"serial": 4, "1d": 4, "1.5d": 4, "2d": 4, "3d": 8} {
		tr, err := NewTrainer(name, ranks, testMach)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name() != name {
			t.Fatalf("Name = %q, want %q", tr.Name(), name)
		}
	}
	if _, err := NewTrainer("4d", 4, testMach); err == nil {
		t.Fatal("expected error for unknown trainer")
	}
	// A rank count the mesh cannot use is rejected where the trainer is
	// built, with the error Train gives a directly constructed one.
	rejected := []struct {
		name   string
		ranks  int
		direct Trainer
	}{
		{"2d", 12, NewTwoD(12, testMach)},
		{"3d", 9, NewThreeD(9, testMach)},
	}
	p := testProblem(t, 36, 6, 4, 3, 1, 26)
	for _, tc := range rejected {
		_, err := NewTrainer(tc.name, tc.ranks, testMach)
		if err == nil {
			t.Fatalf("NewTrainer(%q, %d) accepted a rank count the mesh cannot use", tc.name, tc.ranks)
		}
		_, trainErr := tc.direct.Train(p)
		if trainErr == nil || trainErr.Error() != err.Error() {
			t.Fatalf("%s at %d ranks: Train says %v, NewTrainer says %v", tc.name, tc.ranks, trainErr, err)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var entries []sparse.Coord
	for i := 0; i < 10; i++ {
		entries = append(entries, sparse.Coord{Row: rng.Intn(8), Col: rng.Intn(9), Val: rng.NormFloat64()})
	}
	m := sparse.NewCSR(8, 9, entries)
	got := payloadCSR(csrPayload(m))
	if !sparse.Equal(m, got, 0) {
		t.Fatal("CSR payload round trip failed")
	}
	d := dense.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	gd := payloadMat(matPayload(d))
	if dense.MaxAbsDiff(d, gd) != 0 {
		t.Fatal("dense payload round trip failed")
	}
}

// TestLedgersPopulated verifies distributed runs leave cost accounting
// behind for the harness. The adjacency is directed (row-stochastic), so the
// mesh runs its transpose exchange and every comm category carries words.
func TestLedgersPopulated(t *testing.T) {
	p := testProblem(t, 40, 6, 4, 3, 2, 24)
	p.A = sparse.RowStochastic(p.A)
	tr := NewTwoD(4, testMach)
	if _, err := tr.Train(p); err != nil {
		t.Fatal(err)
	}
	r := tr.Cluster().Max((*comm.Ledger).Reading)
	if r.Bulk <= 0 {
		t.Fatal("no modeled time recorded")
	}
	words := r.Words
	if words[comm.CatSparseComm] == 0 || words[comm.CatDenseComm] == 0 || words[comm.CatTranspose] == 0 {
		t.Fatalf("expected traffic in all comm categories, got %v", words)
	}
	times := r.Time
	if times[comm.CatSpMM] <= 0 {
		t.Fatalf("expected SpMM compute charges, got %v", times)
	}
}
