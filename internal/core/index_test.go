package core

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
)

func makeStore(t testing.TB, objs []uncertain.Object) *uncertain.Store {
	t.Helper()
	st, err := uncertain.NewStore(objs, pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func buildIndex(t testing.TB, objs []uncertain.Object, domain geom.Rect, strategy Strategy) (*UVIndex, BuildStats) {
	t.Helper()
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.Strategy = strategy
	opts.SeedK = 60
	opts.CellSamples = 360
	opts.Index.PageSize = 512 // small pages force real splits at test scale
	ix, stats, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix, stats
}

// TestPNNMatchesBruteForce: for every strategy, the index returns
// exactly the brute-force answer set, with the same probabilities as a
// direct computation over the whole dataset.
func TestPNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	domain := geom.Square(1000)
	objs := randObjects(rng, 120, 1000, 20)
	for _, strategy := range []Strategy{StrategyIC, StrategyICR, StrategyBasic} {
		ix, _ := buildIndex(t, objs, domain, strategy)
		for k := 0; k < 60; k++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			answers, qst, err := ix.PNN(q)
			if err != nil {
				t.Fatal(err)
			}
			want := prob.AnswerSet(objs, q)
			if len(answers) != len(want) {
				t.Fatalf("%v: query %v: got %d answers, want %d (%v vs %v)",
					strategy, q, len(answers), len(want), answers, want)
			}
			// The quadrature's cost is reported per query: whole radii
			// over the answer set (513 each when it ran out of levels),
			// none when one object answers alone.
			radii := qst.CDFEvals / len(want)
			if integrated := len(want) > 1; (radii > 0) != integrated || qst.CDFEvals%len(want) != 0 || radii > 513 || qst.QuadCapped && radii != 513 {
				t.Fatalf("%v: query %v: CDFEvals = %d, QuadCapped = %v over %d answers",
					strategy, q, qst.CDFEvals, qst.QuadCapped, len(want))
			}
			wantProbs := prob.Probs(objs, q)
			for a, ans := range answers {
				if int(ans.ID) != want[a] {
					t.Fatalf("%v: query %v: answer ids %v, want %v", strategy, q, answers, want)
				}
				if math.Abs(ans.Prob-wantProbs[ans.ID]) > 1e-9 {
					t.Fatalf("%v: query %v: object %d prob %v, brute %v",
						strategy, q, ans.ID, ans.Prob, wantProbs[ans.ID])
				}
			}
		}
	}
}

// TestLeafListsAreSupersets: at any leaf, the stored list contains every
// object whose exact UV-cell intersects the leaf region (sampled check:
// any point of the leaf whose answer set includes Oi implies Oi is
// listed).
func TestLeafListsAreSupersets(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	domain := geom.Square(1000)
	objs := randObjects(rng, 100, 1000, 25)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	for k := 0; k < 400; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		tuples, _, _, _, err := ix.leafAt(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		listed := map[int32]bool{}
		for _, tu := range tuples {
			listed[tu.ID] = true
		}
		for _, i := range prob.AnswerSet(objs, q) {
			if !listed[int32(i)] {
				t.Fatalf("query %v: answer object %d not in its leaf list", q, i)
			}
		}
	}
}

// TestLeavesTileDomain: leaf regions partition D exactly.
func TestLeavesTileDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	domain := geom.Square(1000)
	objs := randObjects(rng, 150, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	if err := ix.g.Verify(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	per := pager.TuplesPerPage(ix.opts.PageSize)
	ix.g.Leaves(nil, func(region geom.Rect, depth int, leaf *agrid.Node) {
		if depth > 40 {
			t.Fatal("runaway depth")
		}
		total += region.Area()
		if len(leaf.Pages()) != max(1, (len(leaf.IDs())+per-1)/per) {
			t.Fatalf("leaf with %d ids has %d pages (cap %d)", len(leaf.IDs()), len(leaf.Pages()), per)
		}
	})
	if math.Abs(total-domain.Area()) > 1e-6*domain.Area() {
		t.Errorf("leaf areas sum to %v, want %v", total, domain.Area())
	}
	st := ix.Stats()
	if st.NonLeaf == 0 {
		t.Error("expected at least one split at this scale")
	}
	if st.NonLeaf > DefaultIndexOptions().M {
		t.Errorf("non-leaf count %d exceeds M", st.NonLeaf)
	}
}

// TestRefinementStats: r-objects are a subset of cr-objects (so
// Σ|Fi| ≤ Σ|Ci|), pruning ratios are ordered (C-pruning only removes
// more), and the IC/ICR leaf structures stay comparable — the paper
// reports their query performance as "almost identical". Note that ICR
// leaf lists may be slightly LARGER than IC's: with fewer constraints
// per object, the 4-point test has fewer chances to rule a grid cell
// out, so refinement trades insertion work for a few spurious entries.
func TestRefinementStats(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	domain := geom.Square(1000)
	objs := randObjects(rng, 100, 1000, 20)
	_, statsIC := buildIndex(t, objs, domain, StrategyIC)
	_, statsICR := buildIndex(t, objs, domain, StrategyICR)
	if statsICR.SumR > statsICR.SumCR {
		t.Errorf("more r-objects (%d) than cr-objects (%d)", statsICR.SumR, statsICR.SumCR)
	}
	if statsIC.IPruneRatio() <= 0 || statsIC.CPruneRatio() < statsIC.IPruneRatio() {
		t.Errorf("pruning ratios out of order: I=%v C=%v",
			statsIC.IPruneRatio(), statsIC.CPruneRatio())
	}
	ratio := float64(statsICR.Index.Entries) / float64(statsIC.Index.Entries)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("IC and ICR leaf structures diverged: %d vs %d entries",
			statsIC.Index.Entries, statsICR.Index.Entries)
	}
	if statsICR.RefineDur <= 0 {
		t.Error("ICR must spend time generating r-objects")
	}
	if statsIC.RefineDur != 0 {
		t.Error("IC must not spend refinement time")
	}
}

// TestSplitThresholdSensitivity: a tiny Tθ suppresses splitting (the
// index degrades into page lists), a large Tθ splits eagerly
// (Section VI-B.1).
func TestSplitThresholdSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	domain := geom.Square(1000)
	objs := randObjects(rng, 150, 1000, 20)
	st := makeStore(t, objs)
	build := func(theta float64) IndexStats {
		opts := DefaultBuildOptions()
		opts.SeedK = 60
		opts.Index.PageSize = 512
		opts.Index.SplitTheta = theta
		ix, _, err := Build(st, domain, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix.Stats()
	}
	low := build(0.01)
	high := build(1.0)
	if low.NonLeaf > high.NonLeaf {
		t.Errorf("Tθ=0.01 split more (%d) than Tθ=1 (%d)", low.NonLeaf, high.NonLeaf)
	}
	if high.NonLeaf == 0 {
		t.Error("Tθ=1 produced no splits at all")
	}
}

// TestMemoryBudget: with M=1 the index can never split more than once.
func TestMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	domain := geom.Square(1000)
	objs := randObjects(rng, 120, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.SeedK = 60
	opts.Index.PageSize = 512
	opts.Index.M = 1
	ix, _, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().NonLeaf; got > 1 {
		t.Errorf("M=1 but %d non-leaf nodes", got)
	}
	// Queries still work.
	q := geom.Pt(500, 500)
	answers, _, err := ix.PNN(q)
	if err != nil || len(answers) == 0 {
		t.Fatalf("PNN after M=1 build: %v %v", answers, err)
	}
}

func TestPNNErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(437))
	domain := geom.Square(1000)
	objs := randObjects(rng, 30, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	if _, _, err := ix.PNN(geom.Pt(-5, 20)); err == nil {
		t.Error("query outside the domain must fail")
	}
}

// TestQueryStats: the reported I/O and component stats are coherent.
func TestQueryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(439))
	domain := geom.Square(1000)
	objs := randObjects(rng, 150, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	ix.Pager().ResetStats()
	answers, st, err := ix.PNN(geom.Pt(321, 654))
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexIOs < 1 {
		t.Error("PNN must read at least one leaf page")
	}
	if st.IndexIOs != ix.Pager().Reads() {
		t.Errorf("IndexIOs %d but pager counted %d", st.IndexIOs, ix.Pager().Reads())
	}
	if int(st.ObjectIOs) != st.Candidates {
		t.Errorf("ObjectIOs %d != candidates %d", st.ObjectIOs, st.Candidates)
	}
	// Each fetched record lies on one page, and 150 records of 20 bars
	// fill 8 pages.
	if st.ObjectPages < 1 || st.ObjectPages > st.ObjectIOs || st.ObjectPages > 8 {
		t.Errorf("ObjectPages %d for %d records", st.ObjectPages, st.ObjectIOs)
	}
	if len(answers) > st.Candidates {
		t.Error("more answers than candidates")
	}
	if st.Total() <= 0 {
		t.Error("query duration not recorded")
	}
}
