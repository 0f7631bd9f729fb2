package uvdiagram_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// queryPoints returns a deterministic mix of uniform and skewed
// (repeated-hotspot) points inside the domain — the skew and the exact
// repeats land many points in one leaf, which a batch must read once
// per point exactly like sequential calls do.
func queryPoints(rng *rand.Rand, side float64, n int) []uvdiagram.Point {
	qs := make([]uvdiagram.Point, 0, n)
	hot := uvdiagram.Pt(rng.Float64()*side, rng.Float64()*side)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0: // uniform
			qs = append(qs, uvdiagram.Pt(rng.Float64()*side, rng.Float64()*side))
		case 1: // clustered around the hotspot
			qs = append(qs, uvdiagram.Pt(
				min(max(hot.X+rng.NormFloat64()*side/50, 0), side),
				min(max(hot.Y+rng.NormFloat64()*side/50, 0), side)))
		default: // exact repeat
			qs = append(qs, qs[len(qs)/2])
		}
	}
	return qs
}

func sameAnswerLists(t *testing.T, label string, got, want [][]uvdiagram.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: query %d: %d answers, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			// Bitwise equality: the batch path must run the exact same
			// computation as the sequential path.
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: query %d answer %d: %+v, want %+v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func sameIDLists(t *testing.T, label string, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: query %d: %v, want %v", label, i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: query %d: %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// TestBatchEquivalence is the batch engine's core property: for every
// build strategy, seed and worker configuration, the Batch*
// methods return results identical to N sequential single-point
// queries.
func TestBatchEquivalence(t *testing.T) {
	const side, k, tau = 2000.0, 3, 0.25
	strategies := []struct {
		name string
		s    uvdiagram.Strategy
		n    int
	}{
		{"IC", uvdiagram.IC, 60},
		{"ICR", uvdiagram.ICR, 45},
		{"Basic", uvdiagram.Basic, 30},
	}
	configs := []*uvdiagram.BatchOptions{
		nil,
		{Workers: 1},
		{Workers: 7},
		{Workers: 3},
	}
	for _, strat := range strategies {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := datagen.Config{N: strat.n, Side: side, Diameter: 35, Seed: seed}
			db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(),
				&uvdiagram.Options{Strategy: strat.s})
			if err != nil {
				t.Fatalf("%s seed %d: %v", strat.name, seed, err)
			}
			rng := rand.New(rand.NewSource(seed * 31))
			qs := queryPoints(rng, side, 40)

			// Sequential references.
			wantNN := make([][]uvdiagram.Answer, len(qs))
			wantTop := make([][]uvdiagram.Answer, len(qs))
			wantThr := make([][]uvdiagram.Answer, len(qs))
			wantKNN := make([][]int32, len(qs))
			for i, q := range qs {
				a, _, err := db.PNN(q)
				if err != nil {
					t.Fatal(err)
				}
				wantNN[i] = a
				top, _, err := db.TopKPNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				wantTop[i] = top
				for _, ans := range a {
					if ans.Prob >= tau {
						wantThr[i] = append(wantThr[i], ans)
					}
				}
				ids, err := db.PossibleKNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				wantKNN[i] = ids
			}

			for ci, opts := range configs {
				label := strat.name
				gotNN, err := db.BatchNN(qs, opts)
				if err != nil {
					t.Fatalf("%s cfg %d: BatchNN: %v", label, ci, err)
				}
				sameAnswerLists(t, label+"/BatchNN", gotNN, wantNN)

				gotTop, err := db.BatchTopKPNN(qs, k, opts)
				if err != nil {
					t.Fatalf("%s cfg %d: BatchTopKPNN: %v", label, ci, err)
				}
				sameAnswerLists(t, label+"/BatchTopKPNN", gotTop, wantTop)

				gotThr, err := db.BatchThresholdNN(qs, tau, opts)
				if err != nil {
					t.Fatalf("%s cfg %d: BatchThresholdNN: %v", label, ci, err)
				}
				sameAnswerLists(t, label+"/BatchThresholdNN", gotThr, wantThr)

				gotKNN, err := db.BatchOrderK(qs, k, opts)
				if err != nil {
					t.Fatalf("%s cfg %d: BatchOrderK: %v", label, ci, err)
				}
				sameIDLists(t, label+"/BatchOrderK", gotKNN, wantKNN)
			}
		}
	}
}

// TestBatchEquivalenceOrderKIndex checks the grid-served order-k batch
// against sequential grid lookups.
func TestBatchEquivalenceOrderKIndex(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 50, Side: side, Diameter: 35, Seed: 9}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.NewOrderKIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	qs := queryPoints(rng, side, 30)
	want := make([][]int32, len(qs))
	for i, q := range qs {
		ids, _, err := ix.PossibleKNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}
	for _, opts := range []*uvdiagram.BatchOptions{nil, {Workers: 4}} {
		got, err := ix.BatchPossibleKNN(qs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameIDLists(t, "OrderKIndex.BatchPossibleKNN", got, want)
	}
}

// TestBatchEquivalenceAfterInsert checks that batch answers track the
// mutated database after an Insert: the R-tree's leaf memo, warm from
// the batches before it, must not serve a pre-insert leaf.
func TestBatchEquivalenceAfterInsert(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 40, Side: side, Diameter: 35, Seed: 5}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	qs := queryPoints(rng, side, 24)
	opts := &uvdiagram.BatchOptions{Workers: 4}

	// Warm the R-tree memo.
	if _, err := db.BatchNN(qs, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BatchOrderK(qs, 2, opts); err != nil {
		t.Fatal(err)
	}

	// Mutate: a new object right where queries are answered.
	if err := db.Insert(uvdiagram.NewObject(int32(db.Len()), qs[0].X, qs[0].Y, 20, nil)); err != nil {
		t.Fatal(err)
	}

	gotNN, err := db.BatchNN(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, err := db.BatchOrderK(qs, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswerLists(t, "post-insert BatchNN", [][]uvdiagram.Answer{gotNN[i]}, [][]uvdiagram.Answer{want})
		wantIDs, err := db.PossibleKNN(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameIDLists(t, "post-insert BatchOrderK", [][]int32{gotKNN[i]}, [][]int32{wantIDs})
	}
}

// TestBatchNNReadsWhatSequentialReads: N points through BatchNN cost
// exactly the pager reads of N sequential PNN calls — no hidden cache
// makes a batch cheaper — and return bitwise the same answers, at
// every worker count, on 1 and 4 shards, before and after an Insert, a
// Delete and a Compact.
func TestBatchNNReadsWhatSequentialReads(t *testing.T) {
	const side = 2000.0
	for _, shards := range []int{1, 4} {
		cfg := datagen.Config{N: 60, Side: side, Diameter: 35, Seed: 19}
		db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		qs := queryPoints(rand.New(rand.NewSource(91)), side, 45)
		check := func(stage string) {
			t.Helper()
			r0 := db.BufferPoolStats().PagerReads
			want := make([][]uvdiagram.Answer, len(qs))
			for i, q := range qs {
				if want[i], _, err = db.PNN(q); err != nil {
					t.Fatal(err)
				}
			}
			seqReads := db.BufferPoolStats().PagerReads - r0
			if seqReads == 0 {
				t.Fatalf("%d shards, %s: sequential PNN read no pages", shards, stage)
			}
			for _, workers := range []int{1, 3, 7} {
				r0 := db.BufferPoolStats().PagerReads
				got, err := db.BatchNN(qs, &uvdiagram.BatchOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if reads := db.BufferPoolStats().PagerReads - r0; reads != seqReads {
					t.Fatalf("%d shards, %s, %d workers: BatchNN read %d pages, sequential PNN %d",
						shards, stage, workers, reads, seqReads)
				}
				sameAnswerLists(t, stage, got, want)
			}
		}
		check("fresh")
		if err := db.Insert(uvdiagram.NewObject(int32(db.Len()), qs[1].X, qs[1].Y, 20, nil)); err != nil {
			t.Fatal(err)
		}
		check("after Insert")
		if err := db.Delete(7); err != nil {
			t.Fatal(err)
		}
		check("after Delete")
		if err := db.Compact(t.Context()); err != nil {
			t.Fatal(err)
		}
		check("after Compact")
	}
}

// TestTopKDegenerateK: k ≤ 0 must yield empty results, not a panic —
// the wire path decodes k as u32, so hostile values must stay safe on
// every build.
func TestTopKDegenerateK(t *testing.T) {
	cfg := datagen.Config{N: 30, Side: 2000, Diameter: 35, Seed: 8}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := []uvdiagram.Point{uvdiagram.Pt(500, 500), uvdiagram.Pt(1500, 900)}
	for _, k := range []int{-1, 0} {
		lists, err := db.BatchTopKPNN(qs, k, &uvdiagram.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lists {
			if len(l) != 0 {
				t.Fatalf("k=%d query %d: %v, want empty", k, i, l)
			}
		}
		seq, _, err := db.TopKPNN(qs[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 0 {
			t.Fatalf("sequential TopKPNN k=%d: %v, want empty", k, seq)
		}
	}
}

// TestBatchErrorNamesQuery: a failing point fails the whole batch with
// an error identifying the query, and no partial results leak.
func TestBatchErrorNamesQuery(t *testing.T) {
	cfg := datagen.Config{N: 30, Side: 2000, Diameter: 35, Seed: 2}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := []uvdiagram.Point{
		uvdiagram.Pt(100, 100),
		uvdiagram.Pt(-5, 40), // outside the domain
		uvdiagram.Pt(200, 200),
	}
	for _, opts := range []*uvdiagram.BatchOptions{{Workers: 1}, {Workers: 4}} {
		got, err := db.BatchNN(qs, opts)
		if err == nil {
			t.Fatal("out-of-domain point accepted")
		}
		if !strings.Contains(err.Error(), "query 1") {
			t.Fatalf("error does not name the failing query: %v", err)
		}
		if got != nil {
			t.Fatalf("partial results returned alongside error: %v", got)
		}
	}
}

// TestOutOfDomainMatchesSentinel: every point-query entry point fails
// an out-of-domain point with an error matching ErrOutOfDomain, at one
// shard (the default) as at several.
func TestOutOfDomainMatchesSentinel(t *testing.T) {
	cfg := datagen.Config{N: 40, Side: 2000, Diameter: 35, Seed: 3}
	out := uvdiagram.Pt(-5, 40)
	batch := []uvdiagram.Point{uvdiagram.Pt(100, 100), out}
	for _, shards := range []int{1, 4} {
		db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		entries := []struct {
			name string
			run  func() error
		}{
			{"PNN", func() error { _, _, err := db.PNN(out); return err }},
			{"TopKPNN", func() error { _, _, err := db.TopKPNN(out, 2); return err }},
			{"BatchNN", func() error { _, err := db.BatchNN(batch, nil); return err }},
			{"BatchTopKPNN", func() error { _, err := db.BatchTopKPNN(batch, 2, nil); return err }},
			{"BatchThresholdNN", func() error { _, err := db.BatchThresholdNN(batch, 0.1, nil); return err }},
		}
		for _, e := range entries {
			if err := e.run(); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
				t.Errorf("Shards %d: %s out of domain: err = %v, want ErrOutOfDomain", shards, e.name, err)
			}
		}
	}
}

// TestPNNAllocs pins the allocations of a warm query at n = 4 000: a
// DB.PNN, and each point of a BatchNN with one worker, allocates at
// most 2 times. The leaf's tuples decode into the pooled query scratch
// and fetching a candidate decodes no pdf, so nothing is allocated per
// leaf page or per candidate; what is left per query is its answer
// slice, made once at its length.
func TestPNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	cfg := datagen.Config{N: 4000, Side: 10000, Diameter: datagen.DefaultDiameter, Seed: 20100301}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	qs := queryPoints(rand.New(rand.NewSource(46)), cfg.Side, 200)
	pnn := func() {
		for _, q := range qs {
			if _, _, err := db.PNN(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	bopts := &uvdiagram.BatchOptions{Workers: 1}
	batch := func() {
		if _, err := db.BatchNN(qs, bopts); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 2
	for _, c := range []struct {
		name string
		run  func()
	}{{"PNN", pnn}, {"BatchNN", batch}} {
		c.run() // warm the pooled scratches
		if per := testing.AllocsPerRun(5, c.run) / float64(len(qs)); per > bound {
			t.Errorf("%s: %.2f allocations per query, want ≤ %d", c.name, per, bound)
		} else {
			t.Logf("%s: %.2f allocations per query", c.name, per)
		}
	}
}
