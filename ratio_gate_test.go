package uvdiagram_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/perfgate"
)

// gateDB builds the seeded input of a serving perf gate. Each bound
// sits between the ratio measured and the ratio with the work doubled.
func gateDB(t *testing.T, side float64, seed int64, shards int) *uvdiagram.DB {
	perfgate.Skip(t)
	cfg := datagen.Config{N: 2000, Side: side, Diameter: 40, Seed: seed}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestContinuousMoveRatio: along a smooth seeded 20 000-step walk a
// session may recompute ≤ 1 180 times (measured 786), and a Move that
// stays inside its safe circle must cost ≤ 0.14 leaf descents
// (DB.Partitions at a point, which runs no probability code; measured
// 0.09–0.11, with the Move's work doubled 0.17–0.19).
func TestContinuousMoveRatio(t *testing.T) {
	db, rng := gateDB(t, 10000, 20100301, 1), rand.New(rand.NewSource(99))
	walk := []uvdiagram.Point{uvdiagram.Pt(5000, 5000)}
	for p := walk[0]; len(walk) < 20000; walk = append(walk, p) { // steps inside the 1–20 unit safe radii
		p = uvdiagram.Pt(p.X+rng.Float64()-0.5, p.Y+rng.Float64()-0.5)
	}
	sess, err := db.NewContinuousPNN(walk[0])
	for i := 0; i < len(walk) && err == nil; i++ {
		_, _, err = sess.Move(walk[i])
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.Stats().Recomputes; n > 1180 {
		t.Errorf("the walk recomputed %d times, want ≤ 1180", n)
	}

	// Points strictly inside the walk's last safe circle: no Move to them
	// recomputes.
	safe := sess.SafeRegion()
	if safe.R <= 0 {
		t.Fatalf("no safe circle at %v", sess.Position())
	}
	inside := make([]uvdiagram.Point, 1000)
	for i := range inside {
		r, a := 0.9*safe.R*rng.Float64(), 2*math.Pi*rng.Float64()
		inside[i] = uvdiagram.Pt(safe.C.X+r*math.Cos(a), safe.C.Y+r*math.Sin(a))
	}
	recomputes := sess.Stats().Recomputes
	r := perfgate.Ratio(t, func() (err error) {
		for range 20 {
			for i := 0; i < len(inside) && err == nil; i++ {
				_, _, err = sess.Move(inside[i])
			}
		}
		return err
	}, func() error {
		for range 20 {
			for _, p := range inside {
				db.Partitions(uvdiagram.Rect{Min: p, Max: p})
			}
		}
		return nil
	})
	if n := sess.Stats().Recomputes - recomputes; n != 0 {
		t.Fatalf("%d Moves inside the safe circle recomputed", n)
	}
	if r > 0.14 {
		t.Errorf("a Move inside its safe circle costs %.2f leaf descents, want ≤ 0.14", r)
	}
}

// TestMutationRatio: over 180 delete+insert pairs on a steady 4-shard
// population, a Delete must cost ≤ 5 Inserts (measured 4.0–4.3,
// re-derivation and leaf surgery doubled 5.7–6.3) and re-derive ≤ 7
// dependents (measured 4.62).
func TestMutationRatio(t *testing.T) {
	db := gateDB(t, 7000, 7, 4)
	var del, ins time.Duration
	for i := int32(0); i < 180; i++ {
		start := perfgate.CPU()
		if err := db.Delete(i); err != nil {
			t.Fatal(err)
		}
		mid := perfgate.CPU()
		if err := db.Insert(uvdiagram.NewObject(db.NextID(), float64(37+(i*131)%6900), float64(91+(i*197)%6900), 20, nil)); err != nil {
			t.Fatal(err)
		}
		del, ins = del+mid-start, ins+perfgate.CPU()-mid
	}
	r, rederived := float64(del)/float64(ins), float64(db.MutationStats().Rederived)/float64(db.MutationStats().Deletes)
	t.Logf("Delete %v, Insert %v: %.1fx; %.2f re-derived per delete", del/180, ins/180, r, rederived)
	if r > 5 || rederived > 7 {
		t.Errorf("a Delete costs %.1f Inserts, want ≤ 5; %.2f re-derived per delete, want ≤ 7", r, rederived)
	}
}

// TestOutOfCoreRatio: a batched PNN round off a mapped snapshot must
// cost ≤ 1.5 rounds off a heap-opened copy of it (measured 0.96–1.16, doubled 1.83–2.05):
// more means the zero-copy read path started copying.
func TestOutOfCoreRatio(t *testing.T) {
	built, path := gateDB(t, 10000, 7, 4), filepath.Join(t.TempDir(), "uv.snap")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	qs, rounds := datagen.Queries(256, 10000, 13), []func() error{}
	for _, mode := range []string{"mmap", "heap"} {
		db, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rounds = append(rounds, func() error { _, err := db.BatchNN(qs, &uvdiagram.BatchOptions{Workers: 1}); return err })
	}
	if r := perfgate.Ratio(t, rounds[0], rounds[1]); r > 1.5 {
		t.Errorf("the mapped snapshot serves at %.2fx the heap copy's cost, want ≤ 1.5x", r)
	}
}
