package rnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

func obj(id int32, x, y, r float64) uncertain.Object {
	return uncertain.New(id, geom.Circle{C: geom.Pt(x, y), R: r}, uncertain.Uniform(8))
}

func buildTree(objs []uncertain.Object) *rtree.Tree {
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, MBC: o.Region}
	}
	return rtree.BulkLoad(items, 16, pager.New(4096))
}

func idsOf(ans []Answer) []int32 {
	out := make([]int32, len(ans))
	for i, a := range ans {
		out[i] = a.ID
	}
	return out
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func TestSingleObjectAlwaysAnswer(t *testing.T) {
	objs := []uncertain.Object{obj(0, 500, 500, 20)}
	ans, st := Query(objs, buildTree(objs), geom.Pt(100, 100), nil)
	if len(ans) != 1 || ans[0].ID != 0 {
		t.Fatalf("lone object must be a PRNN answer, got %v", ans)
	}
	if math.Abs(ans[0].Prob-1) > 1e-9 {
		t.Fatalf("lone object probability = %v, want 1", ans[0].Prob)
	}
	if !math.IsInf(st.Cutoff, 1) {
		t.Fatalf("cutoff with one object must be +Inf, got %v", st.Cutoff)
	}
}

func TestBlockerExcludesFarObject(t *testing.T) {
	// Oj sits between q and Oi: every position of Oi is closer to Oj's
	// worst case than to q, so Oi cannot have q as a nearest neighbor.
	objs := []uncertain.Object{
		obj(0, 100, 0, 10), // far object
		obj(1, 50, 0, 1),   // blocker
	}
	q := geom.Pt(0, 0)
	ans, _ := Query(objs, buildTree(objs), q, nil)
	ids := idsOf(ans)
	if containsID(ids, 0) {
		t.Fatalf("blocked object reported as PRNN answer: %v", ids)
	}
	if !containsID(ids, 1) {
		t.Fatalf("blocker itself must be a PRNN answer: %v", ids)
	}
}

func TestSymmetricPairBothAnswer(t *testing.T) {
	objs := []uncertain.Object{
		obj(0, -60, 0, 5),
		obj(1, 60, 0, 5),
	}
	ans, _ := Query(objs, buildTree(objs), geom.Pt(0, 0), nil)
	if len(ans) != 2 {
		t.Fatalf("symmetric pair: want both objects as answers, got %v", ans)
	}
	if math.Abs(ans[0].Prob-ans[1].Prob) > 0.02 {
		t.Fatalf("symmetric probabilities differ: %v vs %v", ans[0].Prob, ans[1].Prob)
	}
}

func TestQInsideRegionIsAnswer(t *testing.T) {
	objs := []uncertain.Object{
		obj(0, 0, 0, 10), // q inside this region
		obj(1, 3, 0, 1),
		obj(2, -4, 1, 1),
	}
	ans, _ := Query(objs, buildTree(objs), geom.Pt(1, 1), nil)
	if !containsID(idsOf(ans), 0) {
		t.Fatalf("object containing q must be an answer, got %v", ans)
	}
}

func TestMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(30)
		objs := datagen.Uniform(datagen.Config{
			N: n, Side: 1000, Diameter: 40 + 40*rng.Float64(), Seed: int64(trial),
		})
		tree := buildTree(objs)
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, _ := PossibleRNN(objs, tree, q, nil)

		const tol = 1.0 // margin band excluded from comparison
		for i := range objs {
			m := BruteForceMargin(objs, objs[i].ID, q, 24)
			if math.Abs(m) <= tol {
				continue
			}
			want := m > 0
			if containsID(got, objs[i].ID) != want {
				t.Fatalf("trial %d q=%v object %d: margin=%.3f want answer=%v, answers=%v",
					trial, q, i, m, want, got)
			}
		}
	}
}

func TestCutoffLemma(t *testing.T) {
	// Every brute-force answer must satisfy distmin(Oi, q) ≤ D₂.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		objs := datagen.Uniform(datagen.Config{
			N: 40, Side: 1000, Diameter: 60, Seed: int64(100 + trial),
		})
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		_, st := PossibleRNN(objs, buildTree(objs), q, nil)
		for _, id := range BruteForceIDs(objs, q, 20) {
			if m := BruteForceMargin(objs, id, q, 20); m <= 1.0 {
				continue // boundary band: grid answer may be spurious
			}
			if dm := objs[id].DistMin(q); dm > st.Cutoff {
				t.Fatalf("trial %d: answer %d has distmin %.3f > cutoff %.3f",
					trial, id, dm, st.Cutoff)
			}
		}
	}
}

func TestPointDegenerationMatchesClassicRNN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 15 + rng.Intn(20)
		pts := make([]geom.Point, n)
		objs := make([]uncertain.Object, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			objs[i] = uncertain.New(int32(i), geom.Circle{C: pts[i], R: 0}, nil)
		}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		got, _ := PossibleRNN(objs, buildTree(objs), q, nil)
		want := PointRNN(pts, q)

		// Exclude ties within tolerance (measure-zero for random data,
		// but guard regardless).
		for _, i := range want {
			if !containsID(got, int32(i)) {
				t.Fatalf("trial %d: classic RNN answer %d missing from PRNN %v", trial, i, got)
			}
		}
		for _, id := range got {
			d := pts[id].Dist(q)
			nearest := math.Inf(1)
			for j, p := range pts {
				if int32(j) != id {
					nearest = math.Min(nearest, pts[id].Dist(p))
				}
			}
			if d > nearest+1e-9 {
				t.Fatalf("trial %d: PRNN answer %d is not a classic RNN (d=%v nearest=%v)",
					trial, id, d, nearest)
			}
		}
	}
}

func TestAnswersAreSubsetOfCandidates(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 60, Side: 1000, Diameter: 50, Seed: 5})
	ids, st := PossibleRNN(objs, buildTree(objs), geom.Pt(500, 500), nil)
	if st.Answers != len(ids) {
		t.Fatalf("stats answers %d != len(answers) %d", st.Answers, len(ids))
	}
	if st.Candidates < st.Answers {
		t.Fatalf("candidates %d < answers %d", st.Candidates, st.Answers)
	}
	if st.Candidates > len(objs) {
		t.Fatalf("candidates %d > n %d", st.Candidates, len(objs))
	}
}

func TestNilTreeScansAllObjects(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 30, Side: 1000, Diameter: 50, Seed: 11})
	q := geom.Pt(400, 600)
	withTree, _ := PossibleRNN(objs, buildTree(objs), q, nil)
	without, _ := PossibleRNN(objs, nil, q, nil)
	if len(withTree) != len(without) {
		t.Fatalf("tree vs scan disagree: %v vs %v", withTree, without)
	}
	for i := range withTree {
		if withTree[i] != without[i] {
			t.Fatalf("tree vs scan disagree at %d: %v vs %v", i, withTree, without)
		}
	}
}

func TestSecondMinBasics(t *testing.T) {
	q := geom.Pt(0, 0)
	cons := []qcon{
		newQCon(q, 0, obj(1, 10, 0, 1)),
		newQCon(q, 0, obj(2, 20, 0, 1)),
	}
	u := geom.Pt(1, 0)
	m2 := secondMin(cons, u)
	t1, ok1 := cons[0].bound(u)
	t2, ok2 := cons[1].bound(u)
	if !ok1 || !ok2 {
		t.Fatalf("both constraints should bound the +x ray")
	}
	want := math.Max(t1, t2)
	if math.Abs(m2-want) > 1e-9 {
		t.Fatalf("secondMin = %v, want %v", m2, want)
	}
	// Opposite direction: neither constraint crosses, so +Inf.
	if v := secondMin(cons, geom.Pt(-1, 0)); !math.IsInf(v, 1) {
		t.Fatalf("secondMin away from all objects = %v, want +Inf", v)
	}
}

func TestQConBoundAgainstUVEdge(t *testing.T) {
	// The local closed form must agree with geom.UVEdge.RadialBound for
	// a zero-radius first object.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		o := obj(0, rng.Float64()*100, rng.Float64()*100, rng.Float64()*10)
		c := newQCon(q, 0, o)
		if !c.exists() {
			continue
		}
		e := geom.NewUVEdge(geom.Circle{C: q, R: 0}, o.Region)
		phi := rng.Float64() * 2 * math.Pi
		u := geom.PolarUnit(phi)
		t1, ok1 := c.bound(u)
		t2, ok2 := e.RadialBound(u)
		if ok1 != ok2 {
			t.Fatalf("bound existence disagrees: %v vs %v", ok1, ok2)
		}
		if ok1 && math.Abs(t1-t2) > 1e-9*(1+math.Abs(t1)) {
			t.Fatalf("bound disagrees: %v vs %v", t1, t2)
		}
	}
}

// TestTreeNewerThanView: the DB captures its store view before the
// helper tree, so a concurrent insert can leave the tree listing an id
// the view does not cover. The query answers over its view and ignores
// the newcomer (it used to index past the slice).
func TestTreeNewerThanView(t *testing.T) {
	// A ring around q: every direction is bounded twice, so the cutoff
	// is finite and candidates come from the tree.
	q := geom.Pt(500, 500)
	var objs []uncertain.Object
	for i := 0; i < 8; i++ {
		u := geom.PolarUnit(2 * math.Pi * float64(i) / 8)
		objs = append(objs, obj(int32(i), 500+100*u.X, 500+100*u.Y, 10))
	}
	want, st := PossibleRNN(objs, buildTree(objs), q, nil)
	if math.IsInf(st.Cutoff, 1) {
		t.Fatal("fixture: infinite cutoff, the tree is not consulted")
	}
	got, _ := PossibleRNN(objs, buildTree(append(objs[:8:8], obj(8, 505, 505, 10))), q, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("answers over a newer tree %v, over the view's own tree %v", got, want)
	}
}
