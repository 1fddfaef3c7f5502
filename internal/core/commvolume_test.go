package core

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/sparse"
)

// perEpochWords measures the per-epoch modeled communication words of a
// trainer, per-rank maximum by category: the steady-state epoch, without
// set-up, the once-per-run input aggregation T¹ with its 2D/3D row-panel
// gather, 2D/3D's sparse row panels and transpose, the final forward pass
// and the output gather.
func perEpochWords(t *testing.T, mk func() DistTrainer, p Problem) [comm.NumCategories]int64 {
	t.Helper()
	steady, _ := runWordsBy(t, mk, p, (*comm.Cluster).Max)
	return steady
}

// runWordsBy trains one 2-epoch run and splits its words by category, under
// the cluster-wide statistic the caller chooses ((*comm.Cluster).Max or
// Sum), into the steady-state epoch and the part a run of any length pays
// once. Each rank's run less its last epoch (comm.Ledger.LastEpoch) is what
// a 1-epoch run charges it, so the split is that of a 1-epoch and a 2-epoch
// run: the epoch run(2) − run(1), the once-per-run part 2·run(1) − run(2).
func runWordsBy(t *testing.T, mk func() DistTrainer, p Problem, stat func(*comm.Cluster, func(*comm.Ledger) comm.Reading) comm.Reading) (steady, once [comm.NumCategories]int64) {
	t.Helper()
	pp := p
	pp.Config.Epochs = 2
	tr := mk()
	if _, err := tr.Train(pp); err != nil {
		t.Fatal(err)
	}
	two := stat(tr.Cluster(), (*comm.Ledger).Reading)
	one := stat(tr.Cluster(), func(l *comm.Ledger) comm.Reading { return l.Reading().Sub(l.LastEpoch()) })
	return two.Sub(one).Words, one.Add(one).Sub(two).Words
}

func commWorkload(p Problem) costmodel.Workload {
	return costmodel.Workload{
		N:      p.A.Rows,
		NNZ:    int64(p.A.NNZ()),
		F:      p.Config.WithDefaults().AvgWidth(),
		Layers: p.Config.Layers(),
	}
}

// aggWidth is the width the steady-state epoch of a two-layer network
// aggregates at: layer 2's narrower side (layer 1 is aggregated once per
// run, not per epoch).
func aggWidth(p Problem) float64 {
	w := p.Config.Widths
	return float64(min(w[1], w[2]))
}

// TestOneDVolumeMatchesAnalytic checks the measured per-epoch 1D dense
// traffic against the §IV-A-6 bound (Eq. 2, the form the trainer implements:
// a block-row multiply in each direction). The bound charges each of L
// layers 2·edgecut·f + f²; a steady-state epoch aggregates L−1 of them (T¹
// is a constant of the run), each at m = min(f^{l-1}, f^l) in both
// directions, and all-reduces all L weight gradients:
// (L−1)·2·edgecut·m + L·f². In broadcast mode a rank is charged every block
// including its own — n rows per product where the random edgecut has
// n(P−1)/P — and the all-reduce twice its f², so the measurement runs above
// the bound by a factor between 1 and P/(P−1) on the first term and 2 on the
// (small) second.
func TestOneDVolumeMatchesAnalytic(t *testing.T) {
	p := testProblem(t, 320, 16, 16, 8, 1, 41)
	for _, ranks := range []int{4, 8, 16} {
		words := perEpochWords(t, func() DistTrainer { return NewOneD(ranks, testMach) }, p)
		measured := float64(words[comm.CatDenseComm])
		w := commWorkload(p)
		L, m := float64(w.Layers), aggWidth(p)
		predicted := (L-1)*2*costmodel.OneDRandomEdgecut(w.N, ranks)*m + L*w.F*w.F
		ratio := measured / predicted
		if ratio < 1 || ratio > 1.5 {
			t.Fatalf("P=%d: measured 1D dense words %v vs analytic %v (ratio %.2f)",
				ranks, measured, predicted, ratio)
		}
	}
}

// TestOneDDenseTrafficFlatAcrossP verifies the core 1D pathology: per-rank
// dense words do not shrink as P grows (the β terms have no P in the
// denominator).
func TestOneDDenseTrafficFlatAcrossP(t *testing.T) {
	p := testProblem(t, 320, 16, 16, 8, 1, 42)
	w4 := perEpochWords(t, func() DistTrainer { return NewOneD(4, testMach) }, p)
	w16 := perEpochWords(t, func() DistTrainer { return NewOneD(16, testMach) }, p)
	ratio := float64(w4[comm.CatDenseComm]) / float64(w16[comm.CatDenseComm])
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("1D dense words should be ~flat in P: P=4 %d vs P=16 %d",
			w4[comm.CatDenseComm], w16[comm.CatDenseComm])
	}
}

// TestTwoDVolumeMatchesAnalytic checks measured 2D traffic against the
// §IV-C-5 bound. A steady-state epoch broadcasts no sparse panel and
// transposes nothing — the mesh holds its row panels — so the bound's whole
// nnz term, 2nnz/√P per layer, comes off, and the measurement must show no
// scomm or trpose words at all. It runs no SUMMA SpMM for layer 1, forward
// or backward, so two sweeps of nf/√P dense panels come off as well, and so
// do the T¹·W¹ panels, n·f⁰/√P, gathered once per run; layer 2's two sweeps
// move dense panels of its narrower side m, not of f. The hidden layer's
// X·W panels, the row gathers and the f² terms stay. What is left of the
// bound is dense only, and the trainer moves fewer dense sweeps than the
// paper's 8 per layer (one gather serves Y and ∂L/∂H, G·Wᵀ needs no
// panels): at these widths [16, 16, 8] seven sweeps — H¹·W² and the gather
// of G¹ at 16, the two SUMMAs, Z², ∂L/∂H² and A·G² at 8 — 72n/√P against the
// 160n/√P left of the bound, so the measurement sits a little under half of
// it, and with no index words in it the band is narrow.
func TestTwoDVolumeMatchesAnalytic(t *testing.T) {
	p := testProblem(t, 320, 16, 16, 8, 1, 43)
	w := commWorkload(p)
	n, f0, m := float64(w.N), float64(p.Config.Widths[0]), aggWidth(p)
	for _, ranks := range []int{4, 16} {
		words := perEpochWords(t, func() DistTrainer { return NewTwoD(ranks, testMach) }, p)
		if words[comm.CatSparseComm] != 0 || words[comm.CatTranspose] != 0 {
			t.Fatalf("P=%d: steady-state epoch moves %d scomm and %d trpose words", ranks, words[comm.CatSparseComm], words[comm.CatTranspose])
		}
		measured := float64(words[comm.CatDenseComm])
		L := float64(w.Layers)
		predicted := costmodel.TwoD(w, ranks).Words -
			(L*2*float64(w.NNZ)+2*n*w.F+n*f0+2*n*(w.F-m))/math.Sqrt(float64(ranks))
		ratio := measured / predicted
		if ratio < 0.4 || ratio > 0.55 {
			t.Fatalf("P=%d: measured 2D words %v vs analytic %v (ratio %.2f)",
				ranks, measured, predicted, ratio)
		}
	}
}

// TestTwoDDenseTrafficScalesWithSqrtP verifies the paper's headline
// behavior (§VI-a: "communicating dense matrices goes down by 2x given 4x
// more devices").
func TestTwoDDenseTrafficScalesWithSqrtP(t *testing.T) {
	p := testProblem(t, 400, 16, 16, 8, 1, 44)
	w4 := perEpochWords(t, func() DistTrainer { return NewTwoD(4, testMach) }, p)
	w16 := perEpochWords(t, func() DistTrainer { return NewTwoD(16, testMach) }, p)
	ratio := float64(w4[comm.CatDenseComm]) / float64(w16[comm.CatDenseComm])
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("2D dense words should drop ~2x from P=4 to P=16, got %.2fx (%d -> %d)",
			ratio, w4[comm.CatDenseComm], w16[comm.CatDenseComm])
	}
}

// TestTwoDBeatsOneDPastCrossover verifies §VI-d's crossover — 2D moves
// fewer words than 1D past it, more below — at the place the steady-state
// epoch puts it. With edgecut ≈ n and nnz ≈ nf the paper's per-layer costs
// are 2nf for 1D and 10nf/√P for 2D, hence 5/√P and √P ≥ 5. Aggregating
// layer 1 once per run takes a whole layer, 2nf, off 1D but only the two
// SUMMA SpMMs and the T¹·W¹ panels, 5nf/√P, off 2D (its row gathers stay),
// and the mesh holding its sparse row panels takes nf/√P off each SUMMA
// SpMM left, so the one-width ratio in the paper's accounting is
// (8L−3)/(2(L−1)√P): 6.5/√P for an L = 2 network
// (costmodel.TwoDOverOneDSteadyWordRatio). The trainer moves fewer dense
// sweeps than that accounting's 8 per layer. This network narrows
// (12 → 9), so layer 2 multiplies first: 2D moves H¹·W² and the gather of
// G¹ at 12 and the two SUMMAs' dense panels and the gathers of Z²,
// ∂L/∂H² and A·G² at 9 — 69n/√P — against 1D's two products at 9, 18n:
// 3.83/√P plus the weight-sized terms. Measured 2D/1D is 1.25 at P = 9,
// 1.03 at P = 16 and 0.79 at P = 25 — the crossover sits between √P = 4 and
// 5, where re-broadcasting the sparse panels every epoch had it between 8
// and 9.
func TestTwoDBeatsOneDPastCrossover(t *testing.T) {
	// Use a workload shaped like the paper's assumption nnz ≈ nf: degree
	// comparable to average feature width.
	p := testProblem(t, 450, 12, 12, 9, 1, 45)
	total := func(words [comm.NumCategories]int64) int64 {
		return words[comm.CatDenseComm] + words[comm.CatSparseComm] + words[comm.CatTranspose]
	}
	oneD := perEpochWords(t, func() DistTrainer { return NewOneD(25, testMach) }, p)
	twoD := perEpochWords(t, func() DistTrainer { return NewTwoD(25, testMach) }, p)
	if total(twoD) >= total(oneD) {
		t.Fatalf("past crossover (P=25): 2D words %d should beat 1D words %d", total(twoD), total(oneD))
	}
	oneDSmall := perEpochWords(t, func() DistTrainer { return NewOneD(9, testMach) }, p)
	twoDSmall := perEpochWords(t, func() DistTrainer { return NewTwoD(9, testMach) }, p)
	if total(twoDSmall) <= total(oneDSmall) {
		t.Fatalf("below crossover (P=9): 1D words %d should beat 2D words %d",
			total(oneDSmall), total(twoDSmall))
	}
}

// TestThreeDVolumeMatchesAnalytic checks measured 3D traffic against the
// §IV-D-5 bound, less its whole nnz term, 2nnz/P^{2/3} per layer — the mesh
// holds its sparse row panels, so a steady-state epoch must show no scomm
// words — less the dense side of the two Split-3D-SpMMs layer 1 no longer
// runs — each nf/P^{2/3} of dense panels plus the nf/P^{2/3} fiber
// reduce-scatter — less the T¹·W¹ panels n·f⁰/P^{2/3}, and with layer 2's
// two Split-3D-SpMMs moving dense panels and reduce-scatters of its
// narrower side m, not of f. As in 2D the trainer moves fewer dense sweeps
// than the bound charges, and the measurement sits a little under half of
// what is left of it.
func TestThreeDVolumeMatchesAnalytic(t *testing.T) {
	p := testProblem(t, 512, 16, 16, 8, 1, 46)
	w := commWorkload(p)
	n, f0, m := float64(w.N), float64(p.Config.Widths[0]), aggWidth(p)
	for _, ranks := range []int{8, 27} {
		words := perEpochWords(t, func() DistTrainer { return NewThreeD(ranks, testMach) }, p)
		if words[comm.CatSparseComm] != 0 {
			t.Fatalf("P=%d: steady-state epoch moves %d scomm words", ranks, words[comm.CatSparseComm])
		}
		measured := float64(words[comm.CatDenseComm])
		L := float64(w.Layers)
		predicted := costmodel.ThreeD(w, ranks).Words -
			(L*2*float64(w.NNZ)+4*n*w.F+n*f0+4*n*(w.F-m))/math.Pow(float64(ranks), 2.0/3)
		ratio := measured / predicted
		if ratio < 0.35 || ratio > 0.55 {
			t.Fatalf("P=%d: measured 3D words %v vs analytic %v (ratio %.2f)",
				ranks, measured, predicted, ratio)
		}
	}
}

// TestThreeDBeatsTwoDWordsAtEqualP verifies the §I claim that 3D moves
// asymptotically fewer words than 2D at the same rank count.
func TestThreeDBeatsTwoDWordsAtEqualP(t *testing.T) {
	p := testProblem(t, 729, 12, 12, 9, 1, 47)
	total := func(words [comm.NumCategories]int64) int64 {
		return words[comm.CatDenseComm] + words[comm.CatSparseComm] + words[comm.CatTranspose]
	}
	twoD := perEpochWords(t, func() DistTrainer { return NewTwoD(64, testMach) }, p)
	threeD := perEpochWords(t, func() DistTrainer { return NewThreeD(64, testMach) }, p)
	if total(threeD) >= total(twoD) {
		t.Fatalf("P=64: 3D words %d should beat 2D words %d", total(threeD), total(twoD))
	}
}

// TestSparseCommStructure confirms the structural difference between the
// families: 1D keeps A in place (no sparse traffic at all), 2D/3D broadcast
// sparse blocks along process rows — in the first SUMMA of each direction,
// a run's once-per-run part, after which every rank holds its row panels
// and a steady-state epoch moves none. The transpose exchange goes the same
// way and runs iff A ≠ Aᵀ, at either depth: on the row-stochastic A, whose
// structure is the symmetric one's, the second panel set doubles the sparse
// words to the word.
func TestSparseCommStructure(t *testing.T) {
	p := testProblem(t, 320, 12, 8, 6, 1, 48)
	directed := p
	directed.A = sparse.RowStochastic(p.A)
	maxWords := (*comm.Cluster).Max
	steady, once := runWordsBy(t, func() DistTrainer { return NewOneD(4, testMach) }, p, maxWords)
	if steady[comm.CatSparseComm] != 0 || once[comm.CatSparseComm] != 0 {
		t.Fatalf("1D should move no sparse words, got %d per epoch and %d once", steady[comm.CatSparseComm], once[comm.CatSparseComm])
	}
	for name, mk := range map[string]func() DistTrainer{
		"2d": func() DistTrainer { return NewTwoD(4, testMach) },
		"3d": func() DistTrainer { return NewThreeD(8, testMach) },
	} {
		var symOnce int64
		for _, prob := range []Problem{p, directed} {
			isDirected := prob.A != p.A
			steady, once := runWordsBy(t, mk, prob, maxWords)
			if once[comm.CatSparseComm] == 0 {
				t.Fatalf("%s must broadcast sparse blocks once per run", name)
			}
			if (once[comm.CatTranspose] != 0) != isDirected {
				t.Fatalf("%s (directed %v) moves %d trpose words once per run", name, isDirected, once[comm.CatTranspose])
			}
			if steady[comm.CatSparseComm] != 0 || steady[comm.CatTranspose] != 0 {
				t.Fatalf("%s (directed %v) re-sends static operands: %d scomm and %d trpose words per steady-state epoch",
					name, isDirected, steady[comm.CatSparseComm], steady[comm.CatTranspose])
			}
			if !isDirected {
				symOnce = once[comm.CatSparseComm]
			} else if once[comm.CatSparseComm] != 2*symOnce {
				t.Fatalf("%s: %d scomm words once on the directed graph, want two panel sets of %d", name, once[comm.CatSparseComm], symOnce)
			}
		}
	}
}

// TestSteadyStateWordsDropInputLayer pins the steady-state epoch's words,
// summed over ranks, to the exact word, as a chain of subtractions from what
// an epoch moved while every layer aggregated H^{l-1} forward and G^l
// backward each epoch (the `before` figures, recorded with this test's
// measurement at f8a34f7, the commit before the engine kept T¹; 1D's is
// restated below for a backward that pulls instead of reduce-scattering):
//
//   - less the input layer's forward aggregation Aᵀ·H⁰ and backward
//     aggregation A·G¹ (`input`): T¹ is a constant of the run;
//   - less what the per-layer product order saves (`order`): layer 2
//     aggregates at min(f¹, f²) in both directions — forward narrower when
//     it multiplies first (f² < f¹), backward narrower when it aggregates
//     first — and in 2D/3D the T¹ row panels no longer cross the network
//     after epoch one, nor does the row gather of A·G² when the aggregate-
//     first output layer's log-softmax backward already holds G² in full
//     rows;
//   - less what is static (`static`): A never changes, so the sparse panels
//     of layer 2's two SUMMA sweeps and 2D's transpose exchange — all that
//     was left of the recorded scomm and trpose — do not recur either. What
//     a run moves of them once (`once`) is one sweep's panels at either
//     depth: A = Aᵀ here, so the mesh holds the one set of row panels the
//     first SUMMA delivers while T¹ is aggregated and backward reads them
//     too — a quarter of the recorded sweeps, 11680 in 2D and 12800 in 3D
//     — and nothing transposes: the 642 trpose words 2D recorded bought
//     nothing on a symmetric A. The once-per-run part is pinned beside the
//     steady state, to the word;
//   - less what running the 2D/3D output layer row-split saves (`rows`):
//     the log-softmax's two row gathers of Z² and ∂L/∂H² at f² go, and one
//     operand crosses into the row layout and one back, each by an
//     all-to-all at the layer's narrower width. In the aggregate-first
//     order the T² panels of the partial SUMMA and Y²'s plane all-reduce
//     and row all-gather go too, for one world all-reduce of Y².
//
// Everything else — the hidden layers' weight all-reduces and X·W panels,
// the gathers of G¹ and of a multiply-first A·G² — must not move. Sums over
// ranks, not per-rank maxima, because only sums subtract.
//
// Charging rules (internal/comm): a broadcast charges every member of a
// group of more than one the payload's words — a dense block is
// rows·cols + 2, a CSR block rows + 3 + 2·nnz; a reduce-scatter (3D's fiber
// sum) charges every member the full input length; an all-reduce charges it
// twice; an all-gather charges every member the words of all parts; an
// all-to-all charges every member the words it sends, which carry no shape
// header.
func TestSteadyStateWordsDropInputLayer(t *testing.T) {
	type words = [comm.NumCategories]int64
	const dcomm, scomm, trpose, misc = comm.CatDenseComm, comm.CatSparseComm, comm.CatTranspose, comm.CatMisc
	sub := func(a, b words) words {
		out := words{}
		for _, cat := range []comm.Category{dcomm, scomm, trpose, misc} {
			out[cat] = a[cat] - b[cat]
		}
		return out
	}
	for _, widths := range [][]int{{8, 6, 4}, {4, 6, 8}} {
		p := edgeProblem(t, 64, widths, 1, 51)
		n, nnz := int64(p.A.Rows), int64(p.A.NNZ())
		f0, f1, f2 := int64(widths[0]), int64(widths[1]), int64(widths[2])
		lo, hi := min(f1, f2), max(f1, f2) // layer 2 aggregates at lo where it used to at hi, in one direction
		narrowing := f2 < f1

		// The block-row product of an n x f operand, T teams of c, either
		// direction: each of the T stage blocks is broadcast once, to the T
		// members of one layer group; then, where a team has more than one
		// member, every rank all-reduces its team's rows within the team,
		// and the c members of a team together account for c·(its rows) =
		// c·n in all. 1D is T = P, c = 1: P broadcasts of one block row
		// each, to all P ranks, and nothing else.
		blockMul := func(T, c, f int64) words {
			w := words{dcomm: T * (n*f + 2*T)}
			if c > 1 {
				w[dcomm] += 2 * c * n * f
			}
			return w
		}
		// 2D on a q x q grid. The q² blocks of an n x f dense matrix, each a
		// panel for the q ranks of a grid row or column, cost the same
		// whether they are a SUMMA SpMM's dense panels, a partial SUMMA's
		// X·W panels or a row all-gather; the q² sparse blocks of a SUMMA
		// SpMM (rows summing to q·n, nonzeros to nnz) go to the q ranks of
		// their grid row.
		panels := func(q, f int64) words { return words{dcomm: q * (n*f + 2*q*q)} }
		summa := func(q, f int64) words {
			return words{scomm: q * (3*q*q + q*n + 2*nnz), dcomm: panels(q, f)[dcomm]}
		}
		// 3D Split-3D-SpMM on a c x c x c mesh: c³ sparse blocks (rows sum
		// to c²·n) and c³ dense blocks, each a panel for c ranks, then the
		// fiber reduce-scatter of every rank's (n/c) x (f/c) partial sum.
		// X·W panels and row gathers again cost what the dense panels do.
		panels3 := func(c, f int64) words { return words{dcomm: c * (n*f + 2*c*c*c)} }
		split := func(c, f int64) words {
			return words{scomm: c * (3*c*c*c + c*c*n + 2*nnz), dcomm: panels3(c, f)[dcomm] + c*n*f}
		}
		// What aggregating once at lo instead of hi saves, given the cost of
		// that one aggregation as a function of its width.
		narrower := func(agg func(f int64) words) words { return sub(agg(hi), agg(lo)) }
		// The row-split output layer on P ranks, q to a process row, where a
		// row gather at width f costs gather(f). An all-to-all of an n x f
		// operand moves all of it but the 1/q each rank keeps. Algorithm 2's
		// Y² is a plane all-reduce of each rank's (f¹/q) x f² block, then a
		// row all-gather of the q blocks; here it is one world all-reduce of
		// the whole f¹ x f².
		rowSplit := func(P, q int64, gather func(f int64) int64) words {
			a2a := func(f int64) int64 { return n * f * (q - 1) / q }
			w := 2*gather(f2) - 2*a2a(lo)
			if !narrowing {
				planeThenGather := P*2*f1*f2/q + P*(f1*f2+2*q)
				w += gather(f1) + planeThenGather - P*2*f1*f2
			}
			return words{dcomm: w}
		}

		cases := []struct {
			name   string
			mk     func() DistTrainer
			before map[bool]words // by narrowing
			input  words          // the two layer-1 aggregations
			order  words
			static words // A's blocks as a steady-state epoch re-sent them
			once   words // A's blocks as a whole run moves them
			rows   words
		}{
			// 1D's recorded 6784 had each of the epoch's two backward
			// aggregations as one reduce-scatter of the n x f outer product,
			// n·f words on each of the P ranks. The same aggregations as P
			// broadcasts move the same payload plus a 2-word shape header
			// per broadcast per rank: 2·P² more each.
			{"1d", func() DistTrainer { return NewOneD(4, testMach) },
				map[bool]words{true: {dcomm: 6784 + 2*2*4*4, misc: 8}, false: {dcomm: 6784 + 2*2*4*4, misc: 8}},
				words{dcomm: blockMul(4, 1, f0)[dcomm] + blockMul(4, 1, f1)[dcomm]},
				narrower(func(f int64) words { return blockMul(4, 1, f) }), words{}, words{}, words{}},
			{"1.5d", func() DistTrainer { return NewOneFiveD(4, 2, testMach) },
				map[bool]words{true: {dcomm: 9824, misc: 8}, false: {dcomm: 9824, misc: 8}},
				words{dcomm: blockMul(2, 2, f0)[dcomm] + blockMul(2, 2, f1)[dcomm]},
				narrower(func(f int64) words { return blockMul(2, 2, f) }), words{}, words{}, words{}},
			{"2d", func() DistTrainer { return NewTwoD(4, testMach) },
				map[bool]words{
					true:  {dcomm: 7936, scomm: 11680, trpose: 642, misc: 8},
					false: {dcomm: 8960, scomm: 11680, trpose: 642, misc: 8}},
				words{dcomm: summa(2, f0)[dcomm] + summa(2, f1)[dcomm], scomm: 2 * summa(2, 0)[scomm]},
				func() words {
					// The SUMMA SpMM's dense panels narrow (its sparse panels
					// are the same either way) and the T¹ panels go; the
					// aggregate-first order also drops the gather of A·G².
					w := words{dcomm: narrower(func(f int64) words { return panels(2, f) })[dcomm] + panels(2, f0)[dcomm]}
					if !narrowing {
						w[dcomm] += panels(2, f2)[dcomm]
					}
					return w
				}(),
				words{scomm: 2 * summa(2, 0)[scomm], trpose: 642},
				words{scomm: summa(2, 0)[scomm]},
				rowSplit(4, 2, func(f int64) int64 { return panels(2, f)[dcomm] })},
			{"3d", func() DistTrainer { return NewThreeD(8, testMach) },
				map[bool]words{
					true:  {dcomm: 11776, scomm: 12800, misc: 16},
					false: {dcomm: 12800, scomm: 12800, misc: 16}},
				words{dcomm: split(2, f0)[dcomm] + split(2, f1)[dcomm], scomm: 2 * split(2, 0)[scomm]},
				func() words {
					w := words{dcomm: narrower(func(f int64) words { return words{dcomm: split(2, f)[dcomm]} })[dcomm] + panels3(2, f0)[dcomm]}
					if !narrowing {
						w[dcomm] += panels3(2, f2)[dcomm]
					}
					return w
				}(),
				words{scomm: 2 * split(2, 0)[scomm]},
				words{scomm: split(2, 0)[scomm]},
				rowSplit(8, 2, func(f int64) int64 { return panels3(2, f)[dcomm] })},
		}
		for _, tc := range cases {
			got, once := runWordsBy(t, tc.mk, p, (*comm.Cluster).Sum)
			before := tc.before[narrowing]
			want := sub(sub(sub(sub(before, tc.input), tc.order), tc.static), tc.rows)
			for _, cat := range []comm.Category{dcomm, scomm, trpose, misc} {
				if got[cat] != want[cat] {
					t.Errorf("%v %s %v: steady-state epoch moves %d words over all ranks, want %d − %d − %d − %d − %d = %d",
						widths, tc.name, cat, got[cat], before[cat], tc.input[cat], tc.order[cat], tc.static[cat], tc.rows[cat], want[cat])
				}
			}
			for _, cat := range []comm.Category{scomm, trpose} {
				if want[cat] != 0 {
					t.Errorf("%v %s %v: the chain leaves %d static words in a steady-state epoch", widths, tc.name, cat, want[cat])
				}
				if once[cat] != tc.once[cat] {
					t.Errorf("%v %s %v: a run moves %d words once over all ranks, want %d", widths, tc.name, cat, once[cat], tc.once[cat])
				}
			}
		}
	}
}

// TestSingleRankWorldMovesNothing: at P = 1 every group has one member, so
// no trainer charges a message or a word in any category — §IV's bounds all
// carry a (P−1)/P factor — and the run still matches the serial reference.
func TestSingleRankWorldMovesNothing(t *testing.T) {
	p := testProblem(t, 40, 7, 5, 4, 2, 11)
	for _, tr := range []DistTrainer{
		NewOneD(1, testMach), NewOneFiveD(1, 1, testMach), NewTwoD(1, testMach), NewThreeD(1, testMach),
	} {
		checkEquivalence(t, tr, p)
		l := tr.Cluster().Ledger(0)
		for cat := range comm.NumCategories {
			if l.Reading().Msgs[cat] != 0 || l.Reading().Words[cat] != 0 {
				t.Errorf("%s %s: %d msgs, %d words at P=1, want 0",
					tr.Name(), cat, l.Reading().Msgs[cat], l.Reading().Words[cat])
			}
		}
	}
}
