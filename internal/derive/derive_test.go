package derive

import (
	"math"
	"math/rand"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
)

// TestEachVisitsLiveIDsOnce drives the population driver at every
// worker count the engines use, with per-id units the way the order-k
// and 3-D engines call it: each unit is visited exactly once, the
// caller's tombstone filter leaves dead slots untouched, and the merged per-worker stats
// equal the inline path's. Run under -race it is also the check that
// private worker state plus per-id output slots need no locking.
func TestEachVisitsLiveIDsOnce(t *testing.T) {
	const n = 1000
	alive := func(id int32) bool { return id%7 != 3 }
	type worker struct {
		visits int
		sum    int64
	}
	type totals struct {
		workers, visits int
		sum             int64
	}
	run := func(workers int) ([]*int, totals) {
		out := make([]*int, n)
		states := Each(n, workers, pprof.Labels("test", "each"),
			func() *worker { return &worker{} },
			func(w *worker, id int) {
				if !alive(int32(id)) {
					return
				}
				if out[id] != nil {
					t.Errorf("workers=%d: id %d visited twice", workers, id)
				}
				v := id * id
				out[id] = &v
				w.visits++
				w.sum += int64(id)
			})
		tot := totals{workers: len(states)}
		for _, w := range states {
			tot.visits += w.visits
			tot.sum += w.sum
		}
		return out, tot
	}
	wantOut, want := run(0)
	if want.workers != 1 {
		t.Fatalf("workers=0 ran on %d worker states, want the 1 inline one", want.workers)
	}
	for id, p := range wantOut {
		switch {
		case alive(int32(id)) && (p == nil || *p != id*id):
			t.Fatalf("inline: live id %d not visited", id)
		case !alive(int32(id)) && p != nil:
			t.Fatalf("inline: dead id %d visited", id)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		out, got := run(workers)
		if got.workers != workers {
			t.Fatalf("workers=%d: %d worker states", workers, got.workers)
		}
		got.workers = want.workers
		if got != want {
			t.Fatalf("workers=%d: merged stats %+v, inline %+v", workers, got, want)
		}
		for id := range out {
			if (out[id] == nil) != (wantOut[id] == nil) || (out[id] != nil && *out[id] != *wantOut[id]) {
				t.Fatalf("workers=%d: slot %d differs from the inline path", workers, id)
			}
		}
	}
}

// rowsFiller serves FillRow from a fixed matrix; a nil row means "no
// UV-edge". It counts calls so tests can tell a cache hit from a miss.
type rowsFiller struct {
	rows  [][]float64
	calls int
}

func (f *rowsFiller) FillRow(j int32, idx int, row []float64) bool {
	f.calls++
	if f.rows[j] == nil {
		return false
	}
	copy(row, f.rows[j])
	return true
}

// foldOracle is Fold by sorting: per direction, the k-th smallest bound
// of the listed candidates (those with a row) against the domain exit.
func foldOracle(rows [][]float64, ids []int32, exit []float64, k int) []float64 {
	if k < 1 {
		k = 1
	}
	out := make([]float64, len(exit))
	for i := range exit {
		var col []float64
		for _, j := range ids {
			if rows[j] != nil {
				col = append(col, rows[j][i])
			}
		}
		sort.Float64s(col)
		out[i] = exit[i]
		if len(col) >= k && col[k-1] < out[i] {
			out[i] = col[k-1]
		}
	}
	return out
}

// TestTableFoldMatchesSortOracle checks the k-th-smallest fold against
// a sort-based oracle on rows with +Inf entries, exact ties, candidates
// without an edge, and k beyond the number of active rows (where the
// domain exit alone bounds the region).
func TestTableFoldMatchesSortOracle(t *testing.T) {
	const n, dirs = 40, 33
	rng := rand.New(rand.NewSource(7))
	inf := math.Inf(1)
	for trial := 0; trial < 50; trial++ {
		f := &rowsFiller{rows: make([][]float64, n)}
		for j := range f.rows {
			if rng.Intn(5) == 0 {
				continue // overlapping regions: no edge
			}
			row := make([]float64, dirs)
			for i := range row {
				switch rng.Intn(4) {
				case 0:
					row[i] = inf
				case 1:
					row[i] = float64(rng.Intn(4)) // few distinct values: ties
				default:
					row[i] = rng.Float64() * 10
				}
			}
			f.rows[j] = row
		}
		var tab Table
		tab.Begin(n, dirs)
		for i := range tab.Exit {
			tab.Exit[i] = rng.Float64() * 12
		}
		ids := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				ids = append(ids, int32(j))
			}
		}
		tab.Activate(ids, f)
		for _, k := range []int{0, 1, 2, 3, 7, len(tab.Active()), len(tab.Active()) + 1, n + 5} {
			got, want := tab.Fold(k), foldOracle(f.rows, ids, tab.Exit, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d (%d active rows):\n got %v\nwant %v", trial, k, len(tab.Active()), got, want)
			}
		}
	}
}

// TestTableGenerationWrap forces the generation counter through its
// wrap-around: stamps written in generation MaxUint32 must not read as
// valid once the counter restarts at 1, or the table would serve a
// previous object's rows.
func TestTableGenerationWrap(t *testing.T) {
	const n, dirs = 5, 3
	f := &rowsFiller{rows: [][]float64{{1, 1, 1}, {2, 2, 2}, nil, {4, 4, 4}, {3, 3, 3}}}
	var tab Table
	tab.Begin(n, dirs)
	tab.gen = math.MaxUint32 - 1
	// Generation MaxUint32: fill rows, then hit the cache. Id 4 stays
	// untouched, so its stamp is still the zero value at the wrap.
	tab.Begin(n, dirs)
	if tab.gen != math.MaxUint32 {
		t.Fatalf("gen = %d, want MaxUint32", tab.gen)
	}
	copy(tab.Exit, []float64{9, 9, 9})
	tab.Activate([]int32{0, 1, 2, 3}, f)
	tab.Activate([]int32{0, 1, 2, 3}, f)
	if f.calls != 4 {
		t.Fatalf("%d FillRow calls within one generation, want 4 (the second Activate is all hits)", f.calls)
	}
	// The wrap: a different object whose bounds differ.
	f.rows = [][]float64{{5, 5, 5}, nil, {6, 6, 6}, {7, 7, 7}, {8, 8, 8}}
	f.calls = 0
	tab.Begin(n, dirs)
	if tab.gen != 1 {
		t.Fatalf("gen = %d after the wrap, want 1", tab.gen)
	}
	for id, s := range tab.stamp {
		if s != 0 {
			t.Fatalf("stamp[%d] = %d survived the wrap", id, s)
		}
	}
	copy(tab.Exit, []float64{9, 9, 9})
	tab.Activate([]int32{0, 1, 2, 3, 4}, f)
	if f.calls != 5 {
		t.Fatalf("%d FillRow calls after the wrap, want 5 (every row refilled)", f.calls)
	}
	if got, want := tab.Fold(1), []float64{5, 5, 5}; !slices.Equal(got, want) {
		t.Fatalf("fold after the wrap = %v, want %v", got, want)
	}
	if got, want := tab.Fold(4), []float64{8, 8, 8}; !slices.Equal(got, want) {
		t.Fatalf("order-4 fold after the wrap = %v, want %v", got, want)
	}
	if got, want := tab.Fold(5), []float64{9, 9, 9}; !slices.Equal(got, want) {
		t.Fatalf("order-5 fold over 4 rows = %v, want the domain exit %v", got, want)
	}
}

// scriptedPruner replays a fixed sequence of bounds and records the
// radii Fixpoint asks for.
type scriptedPruner struct {
	bounds []float64
	radii  []float64
}

func (p *scriptedPruner) Range(radius float64, buf []int32) []int32 {
	p.radii = append(p.radii, radius)
	return append(buf, int32(len(p.radii)))
}

func (p *scriptedPruner) Bound([]int32) float64 {
	return p.bounds[len(p.radii)-1]
}

// TestFixpointStopsAndClamps pins the loop's two exits — the bound no
// longer improving, the round limit — and the radius rule 2d−r with its
// fallback to d when the object is larger than the region bound.
func TestFixpointStopsAndClamps(t *testing.T) {
	cases := []struct {
		name      string
		bounds    []float64
		d, r      float64
		rounds    int
		wantRadii []float64
		wantLast  int32
	}{
		{"converges", []float64{8, 6, 6, 1}, 10, 2, 8, []float64{18, 14, 10}, 3},
		{"round limit", []float64{8, 6, 4, 2}, 10, 2, 2, []float64{18, 14}, 2},
		{"big object", []float64{3, 3}, 4, 9, 8, []float64{4, 3}, 2},
	}
	for _, c := range cases {
		p := &scriptedPruner{bounds: c.bounds}
		got := Fixpoint(p, c.d, c.r, c.rounds, nil)
		if !slices.Equal(p.radii, c.wantRadii) {
			t.Errorf("%s: radii %v, want %v", c.name, p.radii, c.wantRadii)
		}
		if len(got) != 1 || got[0] != c.wantLast {
			t.Errorf("%s: candidates %v, want the last round's [%d]", c.name, got, c.wantLast)
		}
	}
}

func TestGoldenMaxFindsMaximum(t *testing.T) {
	f := func(x float64) float64 { return -(x - 2.3) * (x - 2.3) }
	if got := GoldenMax(f, 0, 5, 60); math.Abs(got) > 1e-9 {
		t.Fatalf("GoldenMax = %v, want ~0", got)
	}
}

// TestRingMax: the polish finds a peak that falls between two ring
// samples, a +Inf sample short-circuits, and the result is the best
// value seen times (1+1e-6) exactly.
func TestRingMax(t *testing.T) {
	ring := func(n int, f func(float64) float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(2 * math.Pi * float64(i) / float64(n))
		}
		return vals
	}

	// A narrow bump of height 1.5 over a floor of 1, centered halfway
	// between samples 3 and 4 of a 16-sample ring: the samples see the
	// floor, the polish the peak.
	const n = 16
	peak := 2 * math.Pi * 3.5 / n
	bump := func(phi float64) float64 {
		d := math.Remainder(phi-peak, 2*math.Pi)
		return 1 + 0.5*math.Exp(-d*d*400)
	}
	vals := ring(n, bump)
	if best := slices.Max(vals); best > 1.01 {
		t.Fatalf("fixture: a sample already sees the peak (%v)", best)
	}
	got := RingMax(vals, bump)
	// Golden-section after PolishIters steps brackets the peak to
	// (2·2π/n)·0.618⁴⁰; the bump is flat to 1e-12 within that.
	if want := 1.5 * (1 + 1e-6); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RingMax over an off-sample peak = %v, want %v", got, want)
	}

	// A +Inf sample returns +Inf without polishing.
	calls := 0
	counted := func(phi float64) float64 { calls++; return 1 }
	inf := []float64{1, 2, math.Inf(1), 2, 1}
	if got := RingMax(inf, counted); !math.IsInf(got, 1) || calls != 0 {
		t.Fatalf("RingMax with a +Inf sample = %v after %d polish probes, want +Inf after 0", got, calls)
	}

	// Exactly the best value times (1+1e-6): a ring whose polish can
	// only find lower values returns its best sample, inflated.
	inflate := 1 + 1e-6
	flat := []float64{3, 1, 2, 1, 2.5, 1}
	below := func(float64) float64 { return 0.5 }
	if got, want := RingMax(flat, below), 3*inflate; got != want {
		t.Fatalf("RingMax = %v, want best × (1+1e-6) = %v", got, want)
	}
	if got, want := RingMax(vals, func(float64) float64 { return 1.25 }), 1.25*inflate; got != want {
		t.Fatalf("RingMax with a polished best = %v, want %v", got, want)
	}
}
