package uvdiagram_test

import (
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

// TestContinuousMoveRatio: a PNN at every 100th point of a smooth
// seeded walk must cost ≥ 135 Moves along it (measured 161–214, doubled
// 101–113), and the walk may recompute ≤ 1 180 times (measured 786).
func TestContinuousMoveRatio(t *testing.T) {
	db, rng := gateDB(t, 10000, 20100301, 1), rand.New(rand.NewSource(99))
	walk := []uvdiagram.Point{uvdiagram.Pt(5000, 5000)}
	for p := walk[0]; len(walk) < 20000; walk = append(walk, p) { // steps inside the 1–20 unit safe radii
		p = uvdiagram.Pt(p.X+rng.Float64()-0.5, p.Y+rng.Float64()-0.5)
	}
	var recomputes int
	r := 100 * perfgate.Ratio(t, func() (err error) {
		for i := 0; i < len(walk) && err == nil; i += 100 {
			_, _, err = db.PNN(walk[i])
		}
		return err
	}, func() error {
		sess, err := db.NewContinuousPNN(walk[0])
		for i := 0; i < len(walk) && err == nil; i++ {
			_, _, err = sess.Move(walk[i])
		}
		recomputes = sess.Stats().Recomputes
		return err
	})
	if r < 135 || recomputes > 1180 {
		t.Errorf("a PNN costs %.0f Moves, want ≥ 135; %d recomputes, want ≤ 1180", r, recomputes)
	}
}

// TestMaintainTickRatio: an idle Tick on a balanced 4-shard database
// must cost ≤ 1.5 LoadImbalance calls (measured 0.91–1.18, doubled 1.90–2.02), allocate ≤
// 3 times (measured 2) and read no page.
func TestMaintainTickRatio(t *testing.T) {
	db := gateDB(t, 10000, 20100301, 4)
	m, err := db.StartMaintainer(uvdiagram.MaintainOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	reads := db.BufferPoolStats().PagerReads
	r := perfgate.Ratio(t, thousand(m.Tick), thousand(func() { db.LoadImbalance() }))
	if allocs, reads := testing.AllocsPerRun(100, m.Tick), db.BufferPoolStats().PagerReads-reads; r > 1.5 || allocs > 3 || reads != 0 {
		t.Errorf("a Tick costs %.2f LoadImbalance calls, want ≤ 1.5; %.0f allocs, want ≤ 3; %d page reads, want 0", r, allocs, reads)
	}
}

func thousand(f func()) func() error {
	return func() error {
		for range 1000 {
			f()
		}
		return nil
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
