package uvdiagram_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

func buildSmallDB(t testing.TB, n int, opts *uvdiagram.Options) (*uvdiagram.DB, []uvdiagram.Object) {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 42}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, objs
}

func TestBuildAndQuery(t *testing.T) {
	db, objs := buildSmallDB(t, 300, nil)
	if db.Len() != 300 {
		t.Fatalf("Len = %d", db.Len())
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40; k++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		answers, stats, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) == 0 {
			t.Fatalf("query %v returned no answers", q)
		}
		// Probabilities sum to ~1.
		sum := 0.0
		for _, a := range answers {
			if a.Prob <= 0 || a.Prob > 1 {
				t.Fatalf("probability %v out of range", a.Prob)
			}
			sum += a.Prob
		}
		if math.Abs(sum-1) > 0.02 {
			t.Fatalf("probabilities sum to %v", sum)
		}
		// Exactly the brute-force answer set.
		want := uvdiagram.AnswerSet(objs, q)
		if len(want) != len(answers) {
			t.Fatalf("answer count %d, brute force %d", len(answers), len(want))
		}
		for i, a := range answers {
			if int(a.ID) != want[i] {
				t.Fatalf("answers %v, want ids %v", answers, want)
			}
		}
		if stats.IndexIOs < 1 || stats.Total() <= 0 {
			t.Fatal("missing query stats")
		}
	}
}

// TestUVAgainstRTreeBaseline: both retrieval paths return bitwise
// identical answers (ids and probabilities), and the UV-index must not
// read more leaf pages than the R-tree baseline on average (the Figure
// 6(b) effect). The second input is the serving benchmark's dataset:
// n = 8 000 over 4 shards.
func TestUVAgainstRTreeBaseline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     datagen.Config
		shards  int
		queries int
	}{
		{"n600", datagen.Config{N: 600, Side: 2000, Diameter: 30, Seed: 42}, 0, 50},
		{"n8000-4shards", datagen.Config{N: 8000, Side: 10000, Seed: 20100301}, 4, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := uvdiagram.Build(datagen.Uniform(tc.cfg), tc.cfg.Domain(), &uvdiagram.Options{Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(2))
			var uvIOs, rtIOs int64
			for k := 0; k < tc.queries; k++ {
				q := uvdiagram.Pt(rng.Float64()*tc.cfg.Side, rng.Float64()*tc.cfg.Side)
				a1, s1, err := db.PNN(q)
				if err != nil {
					t.Fatal(err)
				}
				a2, s2, err := db.PNNViaRTree(q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a1, a2) {
					t.Fatalf("query %d %v: answers differ: UV %v, R-tree %v", k, q, a1, a2)
				}
				uvIOs += s1.IndexIOs
				rtIOs += s2.IndexIOs
			}
			if uvIOs >= rtIOs {
				t.Errorf("UV-index used %d leaf I/Os, R-tree %d — expected UV to win", uvIOs, rtIOs)
			}
		})
	}
}

func TestStrategiesProduceSameAnswers(t *testing.T) {
	cfg := datagen.Config{N: 150, Side: 2000, Diameter: 30, Seed: 7}
	objs := datagen.Uniform(cfg)
	rng := rand.New(rand.NewSource(3))
	queries := make([]uvdiagram.Point, 25)
	for i := range queries {
		queries[i] = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	var baseline [][]uvdiagram.Answer
	for _, strat := range []uvdiagram.Strategy{uvdiagram.IC, uvdiagram.ICR, uvdiagram.Basic} {
		db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		var results [][]uvdiagram.Answer
		for _, q := range queries {
			a, _, err := db.PNN(q)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, a)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for qi := range queries {
			if len(results[qi]) != len(baseline[qi]) {
				t.Fatalf("%v: query %d answer count differs", strat, qi)
			}
			for i := range results[qi] {
				if results[qi][i].ID != baseline[qi][i].ID {
					t.Fatalf("%v: query %d ids differ", strat, qi)
				}
			}
		}
	}
}

func TestPatternQueriesFacade(t *testing.T) {
	db, _ := buildSmallDB(t, 250, nil)
	parts := db.Partitions(uvdiagram.SquareDomain(500))
	if len(parts) == 0 {
		t.Fatal("no partitions")
	}
	area, err := db.CellArea(10)
	if err != nil || area <= 0 {
		t.Fatalf("CellArea = %v, %v", area, err)
	}
	if regions := db.CellRegions(10); len(regions) == 0 {
		t.Fatal("no cell regions")
	}
	if _, err := db.Object(10); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Object(9999); err == nil {
		t.Fatal("unknown object accepted")
	}
	if db.BuildStats().N != 250 {
		t.Error("build stats missing")
	}
	if db.IndexStats().Leaves == 0 {
		t.Error("index stats missing")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := uvdiagram.Build(nil, uvdiagram.SquareDomain(10), nil); err == nil {
		t.Error("empty dataset accepted")
	}
	objs := []uvdiagram.Object{uvdiagram.NewObject(0, 50, 50, 5, nil)}
	if _, err := uvdiagram.Build(objs, uvdiagram.SquareDomain(10), nil); err == nil {
		t.Error("object outside domain accepted")
	}
}

func TestMonteCarloAgreesWithIntegration(t *testing.T) {
	objs := []uvdiagram.Object{
		uvdiagram.NewObject(0, 100, 100, 20, uvdiagram.GaussianPDF()),
		uvdiagram.NewObject(1, 150, 100, 20, uvdiagram.GaussianPDF()),
		uvdiagram.NewObject(2, 120, 140, 20, uvdiagram.UniformPDF()),
	}
	q := uvdiagram.Pt(125, 115)
	ana := uvdiagram.Probabilities(objs, q)
	mc := uvdiagram.MonteCarloProbabilities(objs, q, 80000, 9)
	for i := range objs {
		if math.Abs(ana[i]-mc[i]) > 0.02 {
			t.Errorf("object %d: integration %v vs MC %v", i, ana[i], mc[i])
		}
	}
}

func TestNewObjectFromPolygon(t *testing.T) {
	o, err := uvdiagram.NewObjectFromPolygon(3,
		[]uvdiagram.Point{uvdiagram.Pt(0, 0), uvdiagram.Pt(4, 0), uvdiagram.Pt(2, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 3 || o.Region.R <= 0 {
		t.Fatalf("bad object %+v", o)
	}
	if _, err := uvdiagram.NewObjectFromPolygon(0, nil, nil); err == nil {
		t.Error("empty polygon accepted")
	}
}
