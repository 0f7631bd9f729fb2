package rnn

import (
	"math"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

func TestProbLoneObjectIsOne(t *testing.T) {
	objs := []uncertain.Object{obj(0, 100, 100, 15)}
	if p := Prob(objs, 0, geom.Pt(0, 0), 4, 64, nil); math.Abs(p-1) > 1e-12 {
		t.Fatalf("lone object probability = %v, want 1", p)
	}
}

func TestProbMatchesMonteCarlo(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 12, Side: 400, Diameter: 80, Seed: 42})
	q := geom.Pt(200, 200)
	ids, _ := PossibleRNN(objs, nil, q, nil)
	if len(ids) == 0 {
		t.Skip("no answers in this instance")
	}
	for _, id := range ids {
		integ := Prob(objs, id, q, 4, 72, nil)
		mc := MonteCarlo(objs, id, q, 60000, 7)
		if math.Abs(integ-mc) > 0.03 {
			t.Fatalf("object %d: integration %v vs Monte-Carlo %v", id, integ, mc)
		}
	}
}

func TestProbZeroForBlockedObject(t *testing.T) {
	objs := []uncertain.Object{
		obj(0, 100, 0, 10),
		obj(1, 50, 0, 1),
	}
	q := geom.Pt(0, 0)
	if p := Prob(objs, 0, q, 6, 96, nil); p != 0 {
		t.Fatalf("blocked object probability = %v, want 0", p)
	}
	// The far object (radius 10) can still come within ~40 of the
	// blocker while q sits at ~50, so the blocker wins only about half
	// of the possible worlds; cross-check against Monte Carlo.
	p := Prob(objs, 1, q, 6, 96, nil)
	mc := MonteCarlo(objs, 1, q, 60000, 4)
	if math.Abs(p-mc) > 0.03 {
		t.Fatalf("blocker probability %v disagrees with Monte-Carlo %v", p, mc)
	}
}

func TestProbPositiveForAnswers(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 25, Side: 600, Diameter: 60, Seed: 17})
	q := geom.Pt(300, 300)
	ans, _ := Query(objs, buildTree(objs), q, nil)
	for _, a := range ans {
		m := BruteForceMargin(objs, a.ID, q, 20)
		if m > 2 && a.Prob <= 0 {
			t.Fatalf("answer %d with margin %.2f has probability %v", a.ID, m, a.Prob)
		}
		if a.Prob < 0 || a.Prob > 1 {
			t.Fatalf("answer %d probability %v outside [0,1]", a.ID, a.Prob)
		}
	}
}

func TestPointMassProb(t *testing.T) {
	// Two points: nearer one has probability 1, farther 0.
	objs := []uncertain.Object{
		uncertain.New(0, geom.Circle{C: geom.Pt(10, 0), R: 0}, nil),
		uncertain.New(1, geom.Circle{C: geom.Pt(40, 0), R: 0}, nil),
	}
	q := geom.Pt(0, 0)
	if p := Prob(objs, 0, q, 1, 1, nil); math.Abs(p-1) > 1e-12 {
		t.Fatalf("near point probability = %v, want 1", p)
	}
	// Point 1 is 30 from point 0 and 40 from q, so q is not its NN.
	if p := Prob(objs, 1, q, 1, 1, nil); p != 0 {
		t.Fatalf("far point probability = %v, want 0", p)
	}
}

func TestRelevantCompetitorsFiltersFar(t *testing.T) {
	objs := []uncertain.Object{
		obj(0, 0, 0, 5),
		obj(1, 8, 0, 1),     // relevant: can be closer than q
		obj(2, 10000, 0, 1), // irrelevant: far beyond distmax(O0, q)
	}
	rel := relevantCompetitors(objs, objs[0], geom.Pt(20, 0), nil)
	if len(rel) != 1 || rel[0].ID != 1 {
		ids := make([]int32, len(rel))
		for i, o := range rel {
			ids[i] = o.ID
		}
		t.Fatalf("relevant competitors = %v, want [1]", ids)
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 8, Side: 300, Diameter: 60, Seed: 9})
	q := geom.Pt(150, 150)
	a := MonteCarlo(objs, 0, q, 5000, 123)
	b := MonteCarlo(objs, 0, q, 5000, 123)
	if a != b {
		t.Fatalf("same seed gave different estimates: %v vs %v", a, b)
	}
}
