package costmodel

import (
	"math"
	"testing"
)

func TestProfiles(t *testing.T) {
	if _, err := ProfileByName("summit-v100"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("laptop-cpu"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("cray"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestCommTime(t *testing.T) {
	m := Machine{Alpha: 1e-6, Beta: 1e-9}
	got := m.CommTime(10, 1000)
	want := 10e-6 + 1e-6
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("CommTime = %v, want %v", got, want)
	}
}

func TestSpMMEfficiencyDegradation(t *testing.T) {
	// Yang et al.: degree 62 -> 8 cuts sustained rate by ~3x.
	e62 := Summit.SpMMEfficiency(62, 64)
	e8 := Summit.SpMMEfficiency(8, 64)
	ratio := e62 / e8
	if ratio < 2.2 || ratio > 4.5 {
		t.Fatalf("degree 62->8 efficiency ratio = %.2f, want ≈3", ratio)
	}
}

func TestSpMMEfficiencyMonotoneInDegree(t *testing.T) {
	prev := 0.0
	for _, d := range []float64{1, 2, 4, 8, 16, 32, 62} {
		e := Summit.SpMMEfficiency(d, 64)
		if e <= prev {
			t.Fatalf("efficiency not increasing at degree %v: %v <= %v", d, e, prev)
		}
		prev = e
	}
}

func TestSpMMEfficiencyMonotoneInWidth(t *testing.T) {
	prev := 0.0
	for _, f := range []float64{1, 2, 4, 8, 16, 32} {
		e := Summit.SpMMEfficiency(62, f)
		if e <= prev {
			t.Fatalf("efficiency not increasing at width %v: %v <= %v", f, e, prev)
		}
		prev = e
	}
}

func TestSpMMEfficiencyBounds(t *testing.T) {
	if e := Summit.SpMMEfficiency(1000, 1000); e > 1 {
		t.Fatalf("efficiency %v exceeds 1", e)
	}
	if e := Summit.SpMMEfficiency(0.001, 0.5); e < 1e-3-1e-12 {
		t.Fatalf("efficiency %v below floor", e)
	}
	if e := Summit.SpMMEfficiency(0, 0); e != 1e-3 {
		t.Fatalf("degenerate efficiency = %v", e)
	}
}

func TestSpMMTimeScalesWithWork(t *testing.T) {
	t1 := Summit.SpMMTime(1000, 100, 64)
	t2 := Summit.SpMMTime(2000, 200, 64) // same avg degree, double work
	if math.Abs(t2/t1-2) > 1e-9 {
		t.Fatalf("SpMM time not linear in nnz at fixed degree regime: %v vs %v", t1, t2)
	}
	if Summit.SpMMTime(0, 10, 8) != 0 {
		t.Fatal("zero nnz should cost zero")
	}
}

func TestHypersparsityPenalty(t *testing.T) {
	// Same nnz spread over more rows (lower avg degree) must be slower.
	dense := Summit.SpMMTime(10000, 100, 16)   // degree 100
	hyper := Summit.SpMMTime(10000, 10000, 16) // degree 1
	if hyper <= dense {
		t.Fatalf("hypersparse SpMM (%v) should be slower than dense-ish (%v)", hyper, dense)
	}
}

func TestGEMMTime(t *testing.T) {
	m := Machine{GEMMRate: 1e9}
	got := m.GEMMTime(10, 20, 30)
	want := 2.0 * 10 * 20 * 30 / 1e9
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("GEMMTime = %v, want %v", got, want)
	}
}

func TestWorkloadAvgDegree(t *testing.T) {
	w := Workload{N: 100, NNZ: 2500, F: 32, Layers: 3}
	if w.AvgDegree() != 25 {
		t.Fatalf("AvgDegree = %v", w.AvgDegree())
	}
	if (Workload{}).AvgDegree() != 0 {
		t.Fatal("empty workload degree should be 0")
	}
}

// protein-like workload at paper scale for formula sanity checks.
var wProtein = Workload{N: 8745542, NNZ: 1058120062, F: 128, Layers: 3}

func TestOneDFormula(t *testing.T) {
	p := 64
	ec := OneDRandomEdgecut(wProtein.N, p)
	c := OneD(wProtein, p, ec)
	L, n, f := 3.0, float64(wProtein.N), 128.0
	wantWords := L * (ec*f + n*f + f*f)
	if math.Abs(c.Words-wantWords)/wantWords > 1e-12 {
		t.Fatalf("OneD words = %v, want %v", c.Words, wantWords)
	}
	if c.Msgs != L*3*6 { // lg 64 = 6
		t.Fatalf("OneD msgs = %v", c.Msgs)
	}
}

func TestOneDRandomEdgecut(t *testing.T) {
	if got := OneDRandomEdgecut(100, 4); got != 75 {
		t.Fatalf("edgecut = %v, want 75", got)
	}
	if OneDRandomEdgecut(100, 0) != 0 {
		t.Fatal("p=0 should be 0")
	}
}

func TestOneDSymmetricCheaperThanGeneral(t *testing.T) {
	p := 64
	ec := OneDRandomEdgecut(wProtein.N, p)
	if OneDSymmetric(wProtein, p, ec).Words >= OneD(wProtein, p, ec).Words {
		t.Fatal("symmetric 1D should move fewer words (drops the n·f outer-product term)")
	}
}

func TestTwoDFormula(t *testing.T) {
	p := 64
	c := TwoD(wProtein, p)
	L, n, f := 3.0, float64(wProtein.N), 128.0
	wantWords := L * (8*n*f/8 + 2*float64(wProtein.NNZ)/8 + f*f)
	if math.Abs(c.Words-wantWords)/wantWords > 1e-12 {
		t.Fatalf("TwoD words = %v, want %v", c.Words, wantWords)
	}
	wantMsgs := L * (5*8 + 3*6)
	if math.Abs(c.Msgs-wantMsgs) > 1e-9 {
		t.Fatalf("TwoD msgs = %v, want %v", c.Msgs, wantMsgs)
	}
}

func TestTwoDBeats1DAtScale(t *testing.T) {
	// §VI-d: 2D is competitive once √P ≥ 5, i.e., P ≥ 25.
	for _, p := range []int{36, 64, 100} {
		ec := OneDRandomEdgecut(wProtein.N, p)
		if TwoD(wProtein, p).Words >= OneD(wProtein, p, ec).Words {
			t.Fatalf("2D should move fewer words than 1D at P=%d", p)
		}
	}
}

// TwoDOverOneDWordRatio returns the predicted ratio of words moved by the
// 2D algorithm to the 1D algorithm under the paper's simplifying
// assumptions (§IV-C-5: random partitioning so edgecut ≈ n, nnz ≈ nf,
// f ≪ n): the 2D algorithm moves (5/√P)× the 1D words, so the crossover
// where 2D wins is √P ≥ 5 (§VI-d).
func TwoDOverOneDWordRatio(p int) float64 {
	return 5 / math.Sqrt(float64(p))
}

func TestTwoDOverOneDWordRatio(t *testing.T) {
	if r := TwoDOverOneDWordRatio(25); math.Abs(r-1) > 1e-12 {
		t.Fatalf("ratio at P=25 = %v, want 1 (the crossover)", r)
	}
	if TwoDOverOneDWordRatio(100) >= 1 {
		t.Fatal("2D must win past the crossover")
	}
	if TwoDOverOneDWordRatio(4) <= 1 {
		t.Fatal("1D must win below the crossover")
	}
}

// TestTwoDOverOneDSteadyWordRatio: with the input layer aggregated once per
// run, its T¹ row panels gathered once with it, and the mesh holding its
// sparse row panels, L = 2 crosses over at √P = 6.5 — 2D wins on the 7 x 7
// grid, where re-broadcasting the sparse panels every epoch (crossover 7.5)
// left 1D ahead — the ratio equals what the per-layer terms give directly,
// and deep networks tend to √P = 4, below the paper's 5: from L = 4 on the
// sparse panels saved outweigh the input layer 1D no longer aggregates.
func TestTwoDOverOneDSteadyWordRatio(t *testing.T) {
	if r := TwoDOverOneDSteadyWordRatio(2, 64); math.Abs(r-6.5/8) > 1e-12 {
		t.Fatalf("L=2 ratio at P=64 = %v, want 6.5/8", r)
	}
	if TwoDOverOneDSteadyWordRatio(2, 36) <= 1 {
		t.Fatal("L=2: 1D must still win on the 6 x 6 grid, below √P = 6.5")
	}
	if TwoDOverOneDSteadyWordRatio(2, 49) >= 1 {
		t.Fatal("L=2: 2D must win on the 7 x 7 grid, past √P = 6.5")
	}
	if !math.IsInf(TwoDOverOneDSteadyWordRatio(1, 64), 1) {
		t.Fatal("L=1: 1D moves no vertex-sized data, ratio must be +Inf")
	}
	for _, L := range []int{2, 3, 4, 8, 64} {
		got := TwoDOverOneDSteadyWordRatio(L, 25)
		// Units of nf: 2D pays 10/√P per layer less 4/√P + 1/√P for the input
		// layer, less 1/√P of sparse panels for each of the 2(L−1) SUMMA SpMMs
		// left; 1D pays 2 per layer less 2.
		want := (10*float64(L) - 5 - 2*(float64(L)-1)) / 5 / (2*float64(L) - 2)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("L=%d: ratio %v, per-layer terms give %v", L, got, want)
		}
		if paper := TwoDOverOneDWordRatio(25); (got > paper) != (L < 4) {
			t.Fatalf("L=%d: steady ratio %v against the paper's %v: want above it for L < 4 only", L, got, paper)
		}
	}
	if r := TwoDOverOneDSteadyWordRatio(64, 25); math.Abs(r-4.0/5) > 0.02 {
		t.Fatalf("deep networks must approach a crossover at √P = 4, got ratio %v at P=25", r)
	}
}

// TestTwoDRatioMatchesAsymptotics verifies the paper's simplified claim:
// with edgecut ≈ n, nnz ≈ nf, f ≪ n, the 2D/1D word ratio approaches 5/√P.
func TestTwoDRatioMatchesAsymptotics(t *testing.T) {
	w := Workload{N: 1 << 22, NNZ: 1 << 29, F: 128, Layers: 3} // nnz = n*f exactly
	for _, p := range []int{16, 64, 256} {
		oneD := OneD(w, p, float64(w.N)) // edgecut = n
		twoD := TwoD(w, p)
		got := twoD.Words / oneD.Words
		want := TwoDOverOneDWordRatio(p)
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("P=%d: measured ratio %v vs asymptotic %v", p, got, want)
		}
	}
}

func TestThreeDFormula(t *testing.T) {
	p := 64
	c := ThreeD(wProtein, p)
	L, n, f := 3.0, float64(wProtein.N), 128.0
	p23 := 16.0 // 64^(2/3)
	wantWords := L * (2*float64(wProtein.NNZ)/p23 + 12*n*f/p23)
	if math.Abs(c.Words-wantWords)/wantWords > 1e-12 {
		t.Fatalf("ThreeD words = %v, want %v", c.Words, wantWords)
	}
	if math.Abs(c.Msgs-L*4*4) > 1e-9 {
		t.Fatalf("ThreeD msgs = %v", c.Msgs)
	}
}

func TestThreeDBeats2DAtScale(t *testing.T) {
	// §I: 3D reduces words by another O(P^{1/6}) over 2D.
	for _, p := range []int{64, 512, 4096} {
		if ThreeD(wProtein, p).Words >= TwoD(wProtein, p).Words {
			t.Fatalf("3D should move fewer words than 2D at P=%d", p)
		}
	}
	// Asymptotic ratio check: words2D/words3D should grow like P^{1/6}.
	r64 := TwoD(wProtein, 64).Words / ThreeD(wProtein, 64).Words
	r4096 := TwoD(wProtein, 4096).Words / ThreeD(wProtein, 4096).Words
	gain := r4096 / r64
	wantGain := math.Pow(4096.0/64.0, 1.0/6.0)
	if math.Abs(gain-wantGain)/wantGain > 0.2 {
		t.Fatalf("3D scaling gain = %v, want ≈ %v", gain, wantGain)
	}
}

func TestThreeDReplicationFactor(t *testing.T) {
	if got := ThreeDReplicationFactor(27); math.Abs(got-3) > 1e-12 {
		t.Fatalf("replication factor = %v, want 3", got)
	}
}

func TestOneFiveDDegeneratesToOneD(t *testing.T) {
	p := 16
	c1 := OneFiveD(wProtein, p, 1)
	// At c=1 the formula's dense term is 2nf (all of H moves), matching the
	// 1D bound's edgecut·f + n·f ≈ 2nf under random partitioning.
	oneD := OneD(wProtein, p, OneDRandomEdgecut(wProtein.N, p))
	if math.Abs(c1.Words-oneD.Words)/oneD.Words > 0.1 {
		t.Fatalf("1.5D at c=1 (%v words) should approximate 1D (%v words)", c1.Words, oneD.Words)
	}
}

func TestOneFiveDReplicationTradeoff(t *testing.T) {
	p := 64
	// More replication cuts dense words but grows sparse words.
	c2 := OneFiveD(wProtein, p, 2)
	c4 := OneFiveD(wProtein, p, 4)
	denseC2 := 2 * float64(wProtein.N) * wProtein.F / 2 * 3
	denseC4 := 2 * float64(wProtein.N) * wProtein.F / 4 * 3
	if denseC4 >= denseC2 {
		t.Fatal("replication must cut dense traffic")
	}
	_ = c2
	_ = c4
	if OneFiveD(wProtein, p, 0).Words != OneFiveD(wProtein, p, 1).Words {
		t.Fatal("c<1 must clamp to 1")
	}
}

func TestCommCostAddAndTime(t *testing.T) {
	a := CommCost{Msgs: 1, Words: 10}
	b := CommCost{Msgs: 2, Words: 20}
	s := a.Add(b)
	if s.Msgs != 3 || s.Words != 30 {
		t.Fatalf("Add = %+v", s)
	}
	m := Machine{Alpha: 1, Beta: 0.5}
	if got := s.Time(m); got != 3+15 {
		t.Fatalf("Time = %v", got)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLgf(t *testing.T) {
	if lgf(1) != 0 || lgf(8) != 3 || lgf(9) != 4 {
		t.Fatal("lgf wrong")
	}
}

// TestOneDHaloDenseWords pins the exact ledger predictor: hand-computed
// small cases in both product orders, on an undirected graph (one rᵢ) and a
// directed one (forward and backward rᵢ apart), the p=1 world that moves
// nothing, and consistency with the published OneDSymmetric bound — with
// uniform widths, the recvRows-dependent part is the 2·edgecut·f term of
// §IV-A-6 taken half at a time: once for the input layer's forward fetch,
// and for each of the other L−1 layers once per forward pass and once per
// backward pass.
func TestOneDHaloDenseWords(t *testing.T) {
	widths := []int{3, 2} // L = 1
	// p ≥ 2, one epoch + final forward. The only layer is the input layer:
	// its fetch r·3 happens once, no epoch and no final pass repeats it,
	// and its backward has no aggregation — only the all-reduce 2·3·2. The
	// backward rᵢ therefore cannot matter.
	for _, bwdRows := range []int{5, 9} {
		if got, want := OneDHaloDenseWords(widths, 4, 5, bwdRows, 1), int64(5*3+2*3*2); got != want {
			t.Fatalf("p=4, bwdRows=%d: got %d, want %d", bwdRows, got, want)
		}
	}
	// p = 1: no network, so no collective charges anything.
	if got, want := OneDHaloDenseWords(widths, 1, 0, 0, 1), int64(0); got != want {
		t.Fatalf("p=1: got %d, want %d", got, want)
	}
	// L = 2, two epochs, layer 2 widening (aggregate first, both ways at
	// f¹ = 2). Once: r·f⁰ = 5·3. Per epoch: the layer-2 forward fetch
	// r·f¹ = 5·2, the layer-2 backward fetch r·f¹ = 5·2 (of G²·(W²)ᵀ, not
	// the 5·4 of G²), and both all-reduces 2·(3·2 + 2·4). Final forward: the
	// layer-2 fetch again.
	if got, want := OneDHaloDenseWords([]int{3, 2, 4}, 4, 5, 5, 2), int64(15+2*(10+10+28)+10); got != want {
		t.Fatalf("L=2 widening: got %d, want %d", got, want)
	}
	// The same with layer 2 narrowing (multiply first, both ways at f² = 2).
	// Once: 5·4. Per epoch: the fetch of H¹·W², r·f² = 5·2 (not the 5·3 of
	// H¹), the backward fetch of G², r·f² = 5·2, the all-reduces
	// 2·(4·3 + 3·2).
	if got, want := OneDHaloDenseWords([]int{4, 3, 2}, 4, 5, 5, 2), int64(20+2*(10+10+36)+10); got != want {
		t.Fatalf("L=2 narrowing: got %d, want %d", got, want)
	}
	// Directed: 5 rows fetched over Aᵀ's block row, 7 over A's. Forward
	// terms (the once-per-run 5·3, the per-epoch and the final 5·2) follow
	// the first, the per-epoch backward fetch 7·2 the second.
	if got, want := OneDHaloDenseWords([]int{3, 2, 4}, 4, 5, 7, 2), int64(15+2*(10+14+28)+10); got != want {
		t.Fatalf("L=2 directed: got %d, want %d", got, want)
	}
	// Uniform widths: pred(r) − pred(0) = r·f·(1 + (2·epochs+1)(L−1)), and
	// r·f is half of OneDSymmetric's 2·edgecut·f term for one layer.
	uniform := []int{8, 8, 8}
	w := Workload{N: 100, NNZ: 600, F: 8, Layers: 2}
	for _, r := range []int{0, 7, 99} {
		epochs := 3
		haloPart := OneDHaloDenseWords(uniform, 4, r, r, epochs) -
			OneDHaloDenseWords(uniform, 4, 0, 0, epochs)
		perProduct := (OneDSymmetric(w, 4, float64(r)).Words - OneDSymmetric(w, 4, 0).Words) / float64(2*w.Layers)
		if want := float64(1+(2*epochs+1)*(w.Layers-1)) * perProduct; float64(haloPart) != want {
			t.Fatalf("r=%d: halo part %d vs (1 + (2·epochs+1)(L−1))·edgecut·f = %v", r, haloPart, want)
		}
	}
	// More epochs cost more; more recv rows cost more, in either direction.
	if OneDHaloDenseWords(widths, 4, 5, 5, 2) <= OneDHaloDenseWords(widths, 4, 5, 5, 1) {
		t.Fatal("words must grow with epochs")
	}
	if OneDHaloDenseWords(uniform, 4, 6, 5, 1) <= OneDHaloDenseWords(uniform, 4, 5, 5, 1) {
		t.Fatal("words must grow with forward recv rows")
	}
	if OneDHaloDenseWords(uniform, 4, 5, 6, 1) <= OneDHaloDenseWords(uniform, 4, 5, 5, 1) {
		t.Fatal("words must grow with backward recv rows")
	}
}
