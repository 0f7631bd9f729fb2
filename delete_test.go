package uvdiagram

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"uvdiagram/internal/datagen"
)

// survivorReference builds the ground-truth database for a churn
// sequence: a fresh Build over exactly the surviving population (the
// store is seeded with every object that ever existed so the dense id
// space matches, non-survivors are tombstoned BEFORE the index is
// constructed, and Rebuild derives everything from scratch against the
// live objects only).
func survivorReference(t *testing.T, all []Object, deadIDs []int32, domain Rect, opts *Options) *DB {
	t.Helper()
	db, err := Build(all, domain, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range deadIDs {
		if err := db.store.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertDBsEquivalent compares every query type bitwise between the
// incrementally maintained database and the fresh-build reference.
func assertDBsEquivalent(t *testing.T, label string, got, want *DB, qs []Point) {
	t.Helper()
	assertServingEquivalent(t, label, got, want, qs)
	assertRNNEquivalent(t, label, got, want, qs)
}

// assertRNNEquivalent compares RNN answers bitwise.
func assertRNNEquivalent(t *testing.T, label string, got, want *DB, qs []Point) {
	t.Helper()
	for _, q := range qs {
		gr, _ := got.RNN(q)
		wr, _ := want.RNN(q)
		same := len(gr) == len(wr)
		for i := 0; same && i < len(gr); i++ {
			same = gr[i].ID == wr[i].ID && math.Float64bits(gr[i].Prob) == math.Float64bits(wr[i].Prob)
		}
		if !same {
			t.Fatalf("%s: RNN(%v) diverges: %v vs %v", label, q, gr, wr)
		}
	}
}

// assertServingEquivalent compares every query type but RNN bitwise:
// PNN, TopKPNN, PossibleKNN and the batch engines.
func assertServingEquivalent(t *testing.T, label string, got, want *DB, qs []Point) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: live count %d, want %d", label, got.Len(), want.Len())
	}

	for _, q := range qs {
		ga, _, err := got.PNN(q)
		if err != nil {
			t.Fatalf("%s: PNN(%v): %v", label, q, err)
		}
		wa, _, err := want.PNN(q)
		if err != nil {
			t.Fatalf("%s: reference PNN(%v): %v", label, q, err)
		}
		if fmt.Sprint(ga) != fmt.Sprint(wa) {
			t.Fatalf("%s: PNN(%v) diverges:\n  incremental %v\n  fresh build %v", label, q, ga, wa)
		}

		gt, _, err := got.TopKPNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wt, _, err := want.TopKPNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gt) != fmt.Sprint(wt) {
			t.Fatalf("%s: TopKPNN(%v) diverges: %v vs %v", label, q, gt, wt)
		}

		gk, err := got.PossibleKNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wk, err := want.PossibleKNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gk) != fmt.Sprint(wk) {
			t.Fatalf("%s: PossibleKNN(%v) diverges: %v vs %v", label, q, gk, wk)
		}
	}

	// Batch engines against the same reference, bitwise.
	bopts := &BatchOptions{Workers: 2}
	gb, err := got.BatchNN(qs, bopts)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.BatchNN(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gb) != fmt.Sprint(wb) {
		t.Fatalf("%s: BatchNN diverges", label)
	}
	gtk, err := got.BatchTopKPNN(qs, 2, bopts)
	if err != nil {
		t.Fatal(err)
	}
	wtk, err := want.BatchTopKPNN(qs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gtk) != fmt.Sprint(wtk) {
		t.Fatalf("%s: BatchTopKPNN diverges", label)
	}
	gok, err := got.BatchOrderK(qs, 3, bopts)
	if err != nil {
		t.Fatal(err)
	}
	wok, err := want.BatchOrderK(qs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gok) != fmt.Sprint(wok) {
		t.Fatalf("%s: BatchOrderK diverges", label)
	}
	gth, err := got.BatchThresholdNN(qs, 0.25, bopts)
	if err != nil {
		t.Fatal(err)
	}
	wth, err := want.BatchThresholdNN(qs, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gth) != fmt.Sprint(wth) {
		t.Fatalf("%s: BatchThresholdNN diverges", label)
	}
}

func queryGrid(rng *rand.Rand, side float64, n int) []Point {
	qs := make([]Point, n)
	for i := range qs {
		qs[i] = Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return qs
}

// TestDeleteRebuildEquivalence is the delete-soundness property test:
// for every construction strategy, delete-then-query must be BITWISE
// identical to a fresh build over the survivors, across PNN, TopKPNN,
// PossibleKNN, RNN and all Batch variants.
func TestDeleteRebuildEquivalence(t *testing.T) {
	for _, tc := range []struct {
		strategy Strategy
		n        int
	}{
		{IC, 40},
		{ICR, 30},
		{Basic, 16},
	} {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			cfg := datagen.Config{N: tc.n, Side: 2000, Diameter: 40, Seed: 91 + int64(tc.strategy)}
			objs := datagen.Uniform(cfg)
			opts := &Options{Strategy: tc.strategy}
			db, err := Build(objs, cfg.Domain(), opts)
			if err != nil {
				t.Fatal(err)
			}

			// Delete a third of the population, scattered.
			var dead []int32
			for id := int32(1); int(id) < tc.n; id += 3 {
				if err := db.Delete(id); err != nil {
					t.Fatal(err)
				}
				dead = append(dead, id)
			}
			// Double delete and unknown id must fail cleanly.
			if err := db.Delete(dead[0]); err == nil {
				t.Fatal("double delete accepted")
			}
			if err := db.Delete(int32(tc.n + 100)); err == nil {
				t.Fatal("unknown delete accepted")
			}

			ref := survivorReference(t, objs, dead, cfg.Domain(), opts)
			rng := rand.New(rand.NewSource(7))
			qs := queryGrid(rng, 2000, 12)
			// Also probe every survivor's center (cell interiors) and the
			// victims' centers (their cells must have been handed over).
			for i := 0; i < tc.n; i += 2 {
				qs = append(qs, objs[i].Region.C)
			}
			assertDBsEquivalent(t, tc.strategy.String(), db, ref, qs)
		})
	}
}

// TestInterleavedInsertDeleteEquivalence churns one database through an
// interleaved insert/delete sequence and checks bitwise equivalence
// with a fresh build over the final population after every phase.
func TestInterleavedInsertDeleteEquivalence(t *testing.T) {
	cfg := datagen.Config{N: 30, Side: 2000, Diameter: 40, Seed: 123}
	objs := datagen.Uniform(cfg)
	db, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}

	all := append([]Object(nil), objs...)
	var dead []int32
	rng := rand.New(rand.NewSource(55))
	qs := queryGrid(rng, 2000, 10)

	step := func(label string, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	// Phase 1: a few deletes.
	for _, id := range []int32{2, 11, 17} {
		step("delete", func() error { return db.Delete(id) })
		dead = append(dead, id)
	}
	assertDBsEquivalent(t, "phase1", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)

	// Phase 2: inserts (ids continue past the dense end, never reusing
	// deleted ids), one of which lands near a deleted object's region.
	for i := 0; i < 4; i++ {
		o := NewObject(db.NextID(), 200+float64(i)*400, 300+float64(i)*350, 15, GaussianPDF())
		step("insert", func() error { return db.Insert(o) })
		all = append(all, o)
	}
	assertDBsEquivalent(t, "phase2", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)

	// Phase 3: delete two originals and one of the fresh inserts.
	for _, id := range []int32{5, 23, int32(len(objs) + 1)} {
		step("delete", func() error { return db.Delete(id) })
		dead = append(dead, id)
	}
	assertDBsEquivalent(t, "phase3", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)

	// Phase 4: batch delete, all-or-nothing semantics.
	if err := db.BatchDelete([]int32{8, 8}); err == nil {
		t.Fatal("duplicate batch delete accepted")
	}
	if err := db.BatchDelete([]int32{8, dead[0]}); err == nil {
		t.Fatal("batch delete with dead id accepted")
	}
	if !db.Alive(8) {
		t.Fatal("failed batch delete was not all-or-nothing")
	}
	step("batchdelete", func() error { return db.BatchDelete([]int32{8, 14, 26}) })
	dead = append(dead, 8, 14, 26)
	assertDBsEquivalent(t, "phase4", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)

	// Phase 5: explicit compaction clears the slack without changing a
	// single bit of any answer.
	preSlack := db.Index().Slack()
	if preSlack == 0 {
		t.Fatal("churn accumulated no slack")
	}
	step("compact", func() error { return db.Compact(context.Background()) })
	if got := db.Index().Slack(); got != 0 {
		t.Fatalf("compaction left slack %d", got)
	}
	assertDBsEquivalent(t, "phase5", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)
}

// TestDeletedObjectDisappears checks the direct visibility properties:
// the victim stops appearing in every query type and its neighbors'
// cells grow back over the freed territory.
func TestDeletedObjectDisappears(t *testing.T) {
	cfg := datagen.Config{N: 25, Side: 1500, Diameter: 60, Seed: 9}
	objs := datagen.Uniform(cfg)
	db, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}

	victim := int32(7)
	center := objs[victim].Region.C
	pre, _, err := db.PNN(center)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range pre {
		found = found || a.ID == victim
	}
	if !found {
		t.Fatalf("victim %d invisible at its own center before delete", victim)
	}

	if err := db.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if db.Alive(victim) {
		t.Fatal("victim still alive")
	}
	if _, err := db.Object(victim); err == nil {
		t.Fatal("Object returned a deleted object")
	}
	if _, err := db.CellArea(victim); err == nil {
		t.Fatal("CellArea answered for a deleted object")
	}

	post, _, err := db.PNN(center)
	if err != nil {
		t.Fatal(err)
	}
	if len(post) == 0 {
		t.Fatal("no survivor took over the victim's territory")
	}
	for _, a := range post {
		if a.ID == victim {
			t.Fatalf("deleted object still answered: %v", post)
		}
	}
	ids, err := db.PossibleKNN(center, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == victim {
			t.Fatal("deleted object in PossibleKNN")
		}
	}
	rnn, _ := db.RNN(center)
	for _, a := range rnn {
		if a.ID == victim {
			t.Fatal("deleted object in RNN")
		}
	}
}

// TestOrderKIndexStaleAfterMutation: an order-k grid is a snapshot —
// after a delete, insert or compaction it must refuse to answer rather
// than serve the old population.
func TestOrderKIndexStaleAfterMutation(t *testing.T) {
	cfg := datagen.Config{N: 25, Side: 1500, Diameter: 40, Seed: 64}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	kix, err := db.NewOrderKIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	q := Pt(700, 700)
	if _, _, err := kix.PossibleKNN(q); err != nil {
		t.Fatalf("fresh order-k index refused to answer: %v", err)
	}

	if err := db.Delete(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kix.PossibleKNN(q); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale order-k index: err = %v, want errors.Is ErrStaleSnapshot", err)
	}
	if _, _, err := kix.KNNProbs(q, 100, 1); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale order-k KNNProbs: err = %v, want errors.Is ErrStaleSnapshot", err)
	}
	if _, err := kix.BatchPossibleKNN([]Point{q}, nil); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale order-k batch: err = %v, want errors.Is ErrStaleSnapshot", err)
	}

	// A rebuilt grid answers again and never lists the victim.
	kix2, err := db.NewOrderKIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := kix2.PossibleKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == 4 {
			t.Fatalf("rebuilt order-k grid lists the deleted object: %v", ids)
		}
	}
	// Compaction (epoch swap) also invalidates.
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := kix2.PossibleKNN(q); err == nil {
		t.Fatal("order-k index survived an epoch swap")
	}
}

// TestCompactDoesNotBlockQueries is the non-blocking guarantee, as a
// count rather than a clock: Compact is parked inside its shadow build
// with the store lock held, and 64 queries must still complete — with
// the answers they gave before the rebuild started — before it is let
// go. A query that contended on the rebuild's lock would never return.
func TestCompactDoesNotBlockQueries(t *testing.T) {
	cfg := datagen.Config{N: 400, Side: 8000, Diameter: 40, Seed: 31}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := queryGrid(rand.New(rand.NewSource(3)), 8000, 64)
	before := make([]string, len(qs))
	for i, q := range qs {
		ans, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = fmt.Sprint(ans)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	db.compactHook = func() {
		close(parked)
		<-release
	}
	compactDone := make(chan error, 1)
	go func() { compactDone <- db.Compact(context.Background()) }()
	<-parked

	queried := make(chan error, 1)
	go func() {
		for i, q := range qs {
			ans, _, err := db.PNN(q)
			if err == nil && fmt.Sprint(ans) != before[i] {
				err = fmt.Errorf("PNN(%v) = %v during the rebuild, %s before it", q, ans, before[i])
			}
			if err != nil {
				queried <- err
				return
			}
		}
		queried <- nil
	}()
	select {
	case err := <-queried:
		close(release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatalf("%d queries did not complete while Compact was parked inside its shadow build — queries block on the rebuild", len(qs))
	}
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
}
