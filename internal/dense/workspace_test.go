package dense

import (
	"math"
	"math/rand"
	"testing"
)

func TestWorkspaceGetZeroedAndShaped(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Get(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Fill(7)
	ws.Reset()
	// The recycled buffer must come back zeroed, like dense.New.
	m2 := ws.Get(3, 4)
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled Get buffer not zeroed: %v", m2.Data)
		}
	}
	if m2 != m {
		t.Fatalf("same-shape Get after Reset should reuse the buffer")
	}
}

func TestWorkspaceReusesAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(8, 8) // 64 elements, class 64
	ws.Reset()
	b := ws.Get(4, 16) // also 64 elements: must reuse the same backing array
	if &a.Data[0] != &b.Data[0] {
		t.Fatalf("capacity-compatible shapes should share a backing array")
	}
	if b.Rows != 4 || b.Cols != 16 {
		t.Fatalf("reused buffer has wrong shape %dx%d", b.Rows, b.Cols)
	}
	ws.Reset()
	c := ws.Get(7, 9) // 63 elements, class 64: reuse again
	if &a.Data[0] != &c.Data[0] || len(c.Data) != 63 {
		t.Fatalf("smaller same-class shape should reuse the array resliced")
	}
}

// TestCapClass: a class holds its request, is its own class, is at most
// 1/8 above the request past 16 elements, and never shrinks as the
// request grows; up to 16 the classes are the powers of two.
func TestCapClass(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {3, 4}, {9, 16}, {16, 16}, {17, 18}, {31, 32}, {32, 32},
		{33, 36}, {50, 52}, {63, 64}, {64, 64}, {65, 72},
		{4095 * 32, 131072}, {4097 * 32, 147456}, {1 << 20, 1 << 20},
	} {
		if got := CapClass(tc.n); got != tc.want {
			t.Errorf("CapClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	prev := 0
	for n := 1; n <= 1<<14; n++ {
		c := CapClass(n)
		switch {
		case c < n:
			t.Fatalf("CapClass(%d) = %d holds fewer than %d", n, c, n)
		case CapClass(c) != c:
			t.Fatalf("CapClass(%d) = %d, but CapClass(%d) = %d", n, c, c, CapClass(c))
		case n > 16 && 8*c > 9*n:
			t.Fatalf("CapClass(%d) = %d is more than 1/8 above the request", n, c)
		case c < prev:
			t.Fatalf("CapClass(%d) = %d, below CapClass(%d) = %d", n, c, n-1, prev)
		}
		prev = c
	}
}

// TestWorkspaceWiden: a narrower checkout under Widen draws the full
// width's class, so it reuses that buffer even when a buffer of its own
// class is idle beside it; after Widen(0) it draws its own class — the idle
// full-width buffer when none of its own is idle, since that is at most
// twice its class (best fit), and a class of its own when the full width
// is more than twice it.
func TestWorkspaceWiden(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(16, 8)   // 128 elements
	own := ws.Get(16, 5) // 80 elements
	ws.Reset()
	ws.Widen(8)
	b := ws.Get(16, 5) // 80 elements, drawn as 16×8
	ws.Widen(0)
	if &a.Data[0] != &b.Data[0] || b.Rows != 16 || b.Cols != 5 || len(b.Data) != 80 {
		t.Fatalf("a widened 16x5 checkout should reuse the 16x8 buffer resliced, not its own class's")
	}
	ws.Reset()
	if c := ws.Get(16, 5); &c.Data[0] != &own.Data[0] {
		t.Fatalf("after Widen(0) a 16x5 checkout should draw its own 80-element class, got cap %d", cap(c.Data))
	}
	if c := ws.Get(16, 5); &c.Data[0] != &a.Data[0] {
		t.Fatalf("with its own class taken, a 16x5 checkout should take the idle 128-element buffer, got cap %d", cap(c.Data))
	}
	ws.Reset()
	ws.Get(16, 8)
	ws.Get(16, 5)
	if c := ws.Get(16, 3); cap(c.Data) != 48 {
		t.Fatalf("a 16x3 checkout (class 48) must not take a buffer over twice its class, got cap %d", cap(c.Data))
	}
}

// TestWorkspaceBestFit: a checkout with no idle buffer of its class takes
// the smallest idle one of a class at most twice its own, and never a
// larger one — checked class by class against a brute-force scan.
func TestWorkspaceBestFit(t *testing.T) {
	idle := []int{16, 36, 64, 72, 144, 288}
	for n := 1; n <= 400; n++ {
		ws := NewWorkspace()
		for _, k := range idle {
			ws.GetUninit(1, k)
		}
		ws.Reset()
		k, want := CapClass(n), 0
		for _, c := range idle {
			if c >= k && c <= 2*k && (want == 0 || c < want) {
				want = c
			}
		}
		if want == 0 {
			want = k // nothing fits: a fresh buffer of its own class
		}
		if got := cap(ws.GetUninit(1, n).Data); got != want {
			t.Fatalf("a %d-element checkout (class %d) over idle %v took cap %d, want %d", n, k, idle, got, want)
		}
	}
}

// TestWorkspaceRelease: a released Get buffer is the next checkout of its
// class, a released Wrap header the next Wrap; a kept or New'd matrix is
// left alone, and a second Release is a no-op — as is Release on a nil
// workspace or a nil matrix. In a race-detector build the released buffer
// reads NaN. A steady checkout/release cycle allocates nothing.
func TestWorkspaceRelease(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(4, 8)
	m.Fill(3)
	ws.Release(m)
	for _, v := range m.Data {
		if PoisonReleased != math.IsNaN(v) {
			t.Fatalf("released buffer reads %v (NaN fill %v)", v, PoisonReleased)
		}
	}
	if next := ws.GetUninit(8, 4); next != m {
		t.Fatal("a released Get buffer should be the next checkout of its class")
	}
	if ws.FootprintWords() != 32 {
		t.Fatalf("footprint %d after release and checkout, want the one 32-word buffer", ws.FootprintWords())
	}

	data := []float64{1, 2, 3, 4}
	h := ws.Wrap(2, 2, data)
	ws.Release(h)
	if h.Data != nil || data[3] != 4 {
		t.Fatal("a released Wrap header must drop its data and leave the data untouched")
	}
	if h2 := ws.Wrap(1, 1, data[:1]); h2 != h {
		t.Fatal("a released Wrap header should be the next Wrap's")
	}

	kept := ws.Keep(ws.Get(2, 2))
	kept.Fill(5)
	fresh := New(2, 2)
	ws.Release(kept)
	ws.Release(fresh)
	if kept.At(1, 1) != 5 || len(kept.Data) != 4 || fresh.At(1, 1) != 0 {
		t.Fatal("Release must leave a kept or New'd matrix alone")
	}
	if c := ws.Get(2, 2); c == kept || c == fresh {
		t.Fatal("a kept or New'd matrix must never be handed out")
	}

	twice := ws.Get(3, 3)
	ws.Release(twice)
	ws.Release(twice)
	a, b := ws.Get(3, 3), ws.Get(3, 3)
	if a != twice || b == twice {
		t.Fatal("a second Release must not put the buffer on the free list twice")
	}

	var none *Workspace
	none.Release(New(1, 1))
	ws.Release(nil)

	ws.Reset()
	cycle := func() {
		x := ws.Get(16, 16)
		y := ws.Wrap(2, 2, data)
		z := ws.GetUninit(7, 3)
		ws.Release(y)
		ws.Release(x)
		ws.Release(z)
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("a checkout/release cycle allocates %.1f times, want 0", avg)
	}
}

func TestWorkspaceWrap(t *testing.T) {
	ws := NewWorkspace()
	data := []float64{1, 2, 3, 4, 5, 6}
	m := ws.Wrap(2, 3, data)
	if m.At(1, 2) != 6 {
		t.Fatalf("Wrap must alias the given data")
	}
	ws.Reset()
	data2 := []float64{9}
	m2 := ws.Wrap(1, 1, data2)
	if m2 != m {
		t.Fatalf("Wrap after Reset should reuse the header")
	}
	if m2.At(0, 0) != 9 {
		t.Fatalf("reused header must point at the new data")
	}
	// The original data must be untouched by header recycling.
	if data[5] != 6 {
		t.Fatalf("Wrap/Reset corrupted wrapped data")
	}
}

// TestWorkspaceKeep: a kept Get buffer is the same memory, survives Reset
// untouched, and is never handed out again; a kept Wrap (foreign data) is a
// copy, since its owner may recycle the original.
func TestWorkspaceKeep(t *testing.T) {
	ws := NewWorkspace()
	other := ws.Get(4, 4)
	m := ws.Get(4, 4)
	m.Fill(7)
	if kept := ws.Keep(m); kept != m {
		t.Fatal("Keep of a Get buffer must hand over the buffer itself, not a copy")
	}
	ws.Reset()
	a, b := ws.Get(4, 4), ws.Get(4, 4) // same capacity class: would reuse m if it had been recycled
	if &a.Data[0] == &m.Data[0] || &b.Data[0] == &m.Data[0] {
		t.Fatal("a kept buffer was handed out again after Reset")
	}
	if &a.Data[0] != &other.Data[0] {
		t.Fatal("the buffer that was not kept should have been recycled")
	}
	if m.Rows != 4 || m.At(3, 3) != 7 {
		t.Fatalf("kept buffer changed across Reset: %v", m)
	}

	data := []float64{1, 2, 3, 4}
	w := ws.Wrap(2, 2, data)
	kept := ws.Keep(w)
	data[0] = 99 // the owner recycles its buffer
	ws.Reset()
	if kept.At(0, 0) != 1 || kept.At(1, 1) != 4 {
		t.Fatalf("kept Wrap must be a private copy, got %v", kept.Data)
	}

	var none *Workspace
	if k := none.Keep(FromSlice(1, 2, []float64{5, 6})); k.At(0, 1) != 6 {
		t.Fatal("nil workspace Keep must still return the contents")
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var ws *Workspace
	m := ws.Get(2, 2)
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("nil Get should fall back to New")
	}
	w := ws.Wrap(1, 2, []float64{1, 2})
	if w.At(0, 1) != 2 {
		t.Fatalf("nil Wrap should fall back to FromSlice")
	}
	ws.Reset() // must not panic
	if ws.FootprintWords() != 0 {
		t.Fatalf("nil workspace has no footprint")
	}
}

// TestWorkspaceSteadyStateAllocs: after one warm cycle, a checkout/reset
// cycle of mixed shapes allocates nothing.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	data := make([]float64, 32)
	cycle := func() {
		ws.Get(16, 16)
		ws.Get(7, 3)
		ws.Get(1, 130)
		ws.Wrap(4, 8, data)
		ws.Reset()
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("steady-state workspace cycle allocates %.1f times, want 0", avg)
	}
}

// TestWorkspaceMatricesBehaveLikeNew: random shapes checked out of a
// workspace must be indistinguishable from fresh matrices for kernel use.
func TestWorkspaceMatricesBehaveLikeNew(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		m := ws.Get(r, c)
		ref := New(r, c)
		if !EqualWithin(m, ref, 0) {
			t.Fatalf("Get(%d,%d) differs from New", r, c)
		}
		m.Fill(rng.Float64()) // dirty it for the next cycle
		if iter%7 == 0 {
			ws.Reset()
		}
	}
}
