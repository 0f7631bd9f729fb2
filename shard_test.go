package uvdiagram

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"uvdiagram/internal/datagen"
)

// shardQueryPoints builds a query workload that deliberately includes
// shard-boundary coordinates (the half/quarter cuts of every layout
// under test) alongside uniform random points, so routing edge cases
// are exercised, not dodged.
func shardQueryPoints(rng *rand.Rand, side float64, n int) []Point {
	qs := []Point{
		Pt(side/2, side/2), // 2-shard and 2×2 cut lines
		Pt(side/4, side/2), // 4×2 cut
		Pt(side/2, side/4),
		Pt(3*side/4, 3*side/4),
		Pt(0, 0), Pt(side, side), // domain corners
		Pt(side/2, 0), Pt(0, side), // cuts meeting the boundary
	}
	for len(qs) < n {
		qs = append(qs, Pt(rng.Float64()*side, rng.Float64()*side))
	}
	return qs
}

// assertShardInvariant compares every routed query type bitwise between
// a sharded database and the single-shard reference.
func assertShardInvariant(t *testing.T, label string, got, want *DB, qs []Point) {
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
			t.Fatalf("%s: PNN(%v) diverges:\n  sharded   %v\n  reference %v", label, q, ga, wa)
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

	// Batch engines, with a worker pool on the sharded side so the
	// per-shard routing is covered.
	bopts := &BatchOptions{Workers: 3}
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
	gth, err := got.BatchThresholdNN(qs, 0.2, bopts)
	if err != nil {
		t.Fatal(err)
	}
	wth, err := want.BatchThresholdNN(qs, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gth) != fmt.Sprint(wth) {
		t.Fatalf("%s: BatchThresholdNN diverges", label)
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
}

// TestShardCountInvariance is the sharding soundness property: for
// every construction strategy, on uniform AND skewed datasets, PNN /
// BatchNN / TopK / KNN / Threshold answers — and delete-then-query
// answers after interleaved churn and answers after compaction — are
// bitwise identical across shard counts S ∈ {1, 2, 4, 8}.
func TestShardCountInvariance(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 60, Side: side, Diameter: 40, Seed: 99}
	rng := rand.New(rand.NewSource(5))
	qs := shardQueryPoints(rng, side, 24)

	datasets := []struct {
		name       string
		objs       []Object
		strategies []Strategy
	}{
		{"uniform", datagen.Uniform(cfg), []Strategy{IC, ICR, Basic}},
		// The skewed pile-up (σ = side/8) loads the equal strips
		// unevenly; IC keeps the matrix affordable — strategy coverage
		// comes from the uniform rows.
		{"skewed", datagen.Skewed(cfg, side/8), []Strategy{IC}},
	}
	for _, ds := range datasets {
		objs := ds.objs
		for _, strat := range ds.strategies {
			strat := strat
			t.Run(ds.name+"/"+strat.String(), func(t *testing.T) {
				ref, err := Build(objs, cfg.Domain(), &Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []int{1, 2, 4, 8} {
					db, err := Build(objs, cfg.Domain(), &Options{Strategy: strat, Shards: s, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if db.Shards() != s {
						t.Fatalf("Shards() = %d, want %d", db.Shards(), s)
					}
					label := fmt.Sprintf("%v/%v/S=%d", ds.name, strat, s)
					assertShardInvariant(t, label+"/fresh", db, ref, qs)

					// Interleaved churn applied identically to both engines:
					// delete a spread of ids, insert replacements, delete one
					// of the replacements again.
					mutate := func(d *DB) {
						t.Helper()
						for _, id := range []int32{3, 17, 17 % int32(cfg.N), 41, 55} {
							if !d.Alive(id) {
								continue
							}
							if err := d.Delete(id); err != nil {
								t.Fatal(err)
							}
						}
						mrng := rand.New(rand.NewSource(123))
						for i := 0; i < 6; i++ {
							o := NewObject(d.NextID(), mrng.Float64()*side, mrng.Float64()*side, 20, nil)
							if err := d.Insert(o); err != nil {
								t.Fatal(err)
							}
						}
						if err := d.Delete(d.NextID() - 2); err != nil {
							t.Fatal(err)
						}
					}
					mutate(db)
					mutate(ref)
					assertShardInvariant(t, label+"/churned", db, ref, qs)

					// Compaction clears the slack without changing any
					// answer.
					if err := db.Compact(context.Background()); err != nil {
						t.Fatal(err)
					}
					if got := db.Slack(); got != 0 {
						t.Fatalf("%s: slack %d after compacting", label, got)
					}
					assertShardInvariant(t, label+"/compacted", db, ref, qs)

					// Rebuild the reference for the next iteration's pristine
					// comparison.
					ref, err = Build(objs, cfg.Domain(), &Options{Strategy: strat})
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestShardContinuousInvariance walks a moving query across shard
// boundaries and checks the continuous session serves exactly the
// single-shard engine's answer sets the whole way.
func TestShardContinuousInvariance(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 80, Side: side, Diameter: 40, Seed: 12}
	objs := datagen.Uniform(cfg)
	ref, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Build(objs, cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := Pt(10, 10)
	gotSess, err := db.NewContinuousPNN(start)
	if err != nil {
		t.Fatal(err)
	}
	wantSess, err := ref.NewContinuousPNN(start)
	if err != nil {
		t.Fatal(err)
	}
	// A diagonal walk crosses both the x and y cut lines of the 2×2
	// layout.
	for i := 1; i <= 120; i++ {
		q := Pt(10+float64(i)*16, 10+float64(i)*16)
		ga, _, err := gotSess.Move(q)
		if err != nil {
			t.Fatalf("sharded Move(%v): %v", q, err)
		}
		wa, _, err := wantSess.Move(q)
		if err != nil {
			t.Fatalf("reference Move(%v): %v", q, err)
		}
		if fmt.Sprint(ga) != fmt.Sprint(wa) {
			t.Fatalf("Move(%v) answer sets diverge: %v vs %v", q, ga, wa)
		}
	}
}

// TestShardCompactDuringQueries hammers a sharded database with
// concurrent queries while it is compacted; answers must stay identical
// to a quiescent reference throughout (race detector covers the
// epoch-swap publication).
func TestShardCompactDuringQueries(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 120, Side: side, Diameter: 40, Seed: 31}
	objs := datagen.Uniform(cfg)
	db, err := Build(objs, cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	qs := shardQueryPoints(rng, side, 16)
	want := make([]string, len(qs))
	for i, q := range qs {
		wa, _, err := ref.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(wa)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := (i + w) % len(qs)
				ga, _, err := db.PNN(qs[j])
				if err != nil {
					errs <- fmt.Errorf("PNN(%v): %w", qs[j], err)
					return
				}
				if got := fmt.Sprint(ga); got != want[j] {
					errs <- fmt.Errorf("PNN(%v) diverged during compaction: %s vs %s", qs[j], got, want[j])
					return
				}
			}
		}(w)
	}
	for round := 0; round < 6; round++ {
		if err := db.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardLayoutRouting checks the grid factoring and that every
// point — boundary cuts included — routes to a shard whose rectangle
// contains it.
func TestShardLayoutRouting(t *testing.T) {
	for _, tc := range []struct{ s, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2}, {9, 3, 3}, {16, 4, 4},
	} {
		gx, gy := shardGrid(tc.s)
		if gx != tc.gx || gy != tc.gy {
			t.Fatalf("shardGrid(%d) = %d×%d, want %d×%d", tc.s, gx, gy, tc.gx, tc.gy)
		}
	}

	cfg := datagen.Config{N: 30, Side: 1000, Seed: 3}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	pts := shardQueryPoints(rng, 1000, 200)
	lo := db.layout
	for _, q := range pts {
		i := lo.shardIdx(q)
		if !lo.shards[i].Contains(q) {
			t.Fatalf("point %v routed to shard %d with rect %v", q, i, lo.shards[i])
		}
	}
	// Shard rects tile the domain area exactly.
	var area float64
	for _, st := range db.ShardStats() {
		area += st.Rect.Area()
	}
	if want := db.Domain().Area(); area != want {
		t.Fatalf("shard areas sum to %v, domain is %v", area, want)
	}
}

// TestBuildWorkersInvariant: Options.Workers only chooses how many
// goroutines derive — 0 is GOMAXPROCS in Build, 1 sequential — never
// what they derive: the registries are EqualCROf-identical and the
// snapshots byte-identical at 0, 1 and 4. BuildStats reports the count
// the phase CPU sums were taken over; the background rebuilds keep the
// option's literal value (0 and 1 both sequential).
func TestBuildWorkersInvariant(t *testing.T) {
	cfg := datagen.Config{N: 500, Side: 4000, Diameter: 40, Seed: 22}
	objs := datagen.Uniform(cfg)
	dir := t.TempDir()
	var ref, zero *DB
	var refBytes []byte
	for _, w := range []int{1, 0, 4} {
		db, err := Build(objs, cfg.Domain(), &Options{Workers: w, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := w
		if w == 0 {
			zero, want = db, runtime.GOMAXPROCS(0)
		}
		if got := db.BuildStats().Workers; got != want {
			t.Errorf("Workers %d: BuildStats.Workers = %d, want %d", w, got, want)
		}
		if db.bopts.Workers != w {
			t.Errorf("Workers %d: background rebuilds would derive with %d", w, db.bopts.Workers)
		}
		path := filepath.Join(dir, fmt.Sprintf("w%d.uv5", w))
		if err := db.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refBytes = db, raw
			continue
		}
		if !db.state().cr.EqualCROf(ref.state().cr) {
			t.Errorf("Workers %d: registry differs from the sequential build's", w)
		}
		if !bytes.Equal(raw, refBytes) {
			t.Errorf("Workers %d: snapshot (%d bytes) differs from the sequential build's (%d bytes)", w, len(raw), len(refBytes))
		}
	}
	if err := zero.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := zero.BuildStats().Workers; got != 1 {
		t.Errorf("Compact of a Workers-0 database derived with %d workers, want 1 (sequential)", got)
	}
}

// TestConcurrentCompactDuringChurn is the -race exercise of the store
// lock under a realistic mix: query goroutines and a mutator
// synchronized by an external RWMutex (as the server does it), while
// Compact rounds run with NO external lock at all.
// Afterwards the database must answer bitwise identically to a
// single-shard engine that saw the same mutation sequence.
func TestConcurrentCompactDuringChurn(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 100, Side: side, Diameter: 40, Seed: 61}
	objs := datagen.Uniform(cfg)
	db, err := Build(objs, cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	qs := shardQueryPoints(rng, side, 12)

	var qmu sync.RWMutex // external query-vs-mutation sync, like the server
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(i+w)%len(qs)]
				qmu.RLock()
				_, _, err1 := db.PNN(q)
				_, err2 := db.PossibleKNN(q, 3)
				qmu.RUnlock()
				if err1 != nil || err2 != nil {
					errs <- fmt.Errorf("query during churn: %v / %v", err1, err2)
					return
				}
			}
		}(w)
	}

	// Maintenance outside the external lock: Compact rounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 8; round++ {
			if err := db.Compact(context.Background()); err != nil {
				errs <- err
				return
			}
		}
	}()

	// The deterministic mutation sequence (replayed on the reference
	// below). Interleaving with compaction is nondeterministic, but
	// compaction never changes answers, so the end state is fixed.
	mutate := func(d *DB, lock bool) {
		mrng := rand.New(rand.NewSource(333))
		for i := 0; i < 30; i++ {
			if lock {
				qmu.Lock()
			}
			var err error
			if i%3 == 1 && d.Alive(int32(i)) {
				err = d.Delete(int32(i))
			} else {
				o := NewObject(d.NextID(), mrng.Float64()*side, mrng.Float64()*side, 20, nil)
				err = d.Insert(o)
			}
			if lock {
				qmu.Unlock()
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}
	mutate(db, true)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ref, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mutate(ref, false)
	assertShardInvariant(t, "post-churn-compact", db, ref, qs)
}

// TestLoadUnifiesDivergentShardRegistries opens a pre-shared-registry
// stream: shard 1 of the v3-divergent4 fixture carries constraint sets
// that diverged from shard 0's (as the old per-shard compaction
// re-derivation produced — see testdata/legacy/README.md). Open must
// detect the divergence and rebuild that shard's leaf structure from
// the unified registry, so post-load answers and delete bookkeeping
// stay exact. Every legacy fixture must come out sharing one registry.
func TestLoadUnifiesDivergentShardRegistries(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 70, Side: side, Diameter: 40, Seed: 29}
	objs := datagen.Uniform(cfg)
	victim := int32(5) // the object whose set the fixture's shard 1 truncates
	var db2 *DB
	for _, name := range []string{"v2-single", "v3-equal4", "v4-median4", "v3-divergent4"} {
		db, err := Open("testdata/legacy/"+name+".uvdb", nil)
		if err != nil {
			t.Fatal(err)
		}
		st := db.state()
		for i, ix := range st.indexes {
			if ix.CR() != st.cr {
				t.Fatalf("%s: shard %d does not share the engine registry after Open", name, i)
			}
		}
		db2 = db
	}
	// Churn through the previously divergent object's neighborhood,
	// then compare against a reference that saw the same mutations.
	ref, err := Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{db2, ref} {
		if err := d.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if err := d.Delete(int32(11)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 24; i++ {
		q := Pt(rng.Float64()*side, rng.Float64()*side)
		a1, _, err := db2.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := ref.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("PNN(%v) diverges after unification: %v vs %v", q, a1, a2)
		}
		for j := range a1 {
			if a1[j] != a2[j] {
				t.Fatalf("PNN(%v) diverges after unification: %v vs %v", q, a1, a2)
			}
		}
	}
}

// TestShardAwareBatchOrder checks the batch route over several shards:
// plan resolves every point to its owning shard, and the positional
// results come back in request order whatever the worker count.
func TestShardAwareBatchOrder(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 40, Side: side, Diameter: 40, Seed: 7}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	qs := shardQueryPoints(rng, side, 40)
	owner, err := db.layout.plan(db.domain, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if owner[i] != db.layout.shardIdx(q) {
			t.Fatalf("plan owner[%d] = %d, want %d", i, owner[i], db.layout.shardIdx(q))
		}
	}
	pooled, err := db.BatchNN(qs, &BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := db.BatchNN(qs, &BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pooled) != fmt.Sprint(sequential) {
		t.Fatal("3-worker sharded batch diverges from sequential execution")
	}
}

// TestEntryWeightedSlack: deleting a hub object must accrue slack
// proportional to the leaf entries rewritten, not the object count —
// the slack count is scale-free.
func TestEntryWeightedSlack(t *testing.T) {
	cfg := datagen.Config{N: 60, Side: 2000, Diameter: 60, Seed: 23}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dependents := len(db.Index().Dependents(30))
	if err := db.Delete(30); err != nil {
		t.Fatal(err)
	}
	slack := db.Slack()
	// The delete removed the victim's entries and rewrote every
	// dependent's entries; with ~60 overlapping objects each dependent
	// holds multiple leaf entries, so entry-weighted slack must exceed
	// the old per-object count (1 + dependents).
	if slack <= int64(1+dependents) {
		t.Fatalf("slack %d after deleting a hub with %d dependents — looks per-object, not entry-weighted", slack, dependents)
	}

	// The output-sensitive delete path must keep slack proportional to
	// the entries actually touched: dependents that only got their set
	// stripped (no re-derivation) still pay for their leaf rewrite, and
	// shards a mutation provably cannot reach accrue NOTHING — their
	// publish is a no-op, so slack and generation both stand still.
	cfg4 := datagen.Config{N: 120, Side: 2000, Diameter: 30, Seed: 31}
	db4, err := Build(datagen.Uniform(cfg4), cfg4.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := db4.ShardStats()
	// Find a victim whose delete provably stays inside one shard: its
	// own representation, every dependent's current representation AND
	// every dependent's victim-stripped representation (the largest
	// region any post-delete rep can cover — fresh derivations only add
	// members back) all reach the same single shard.
	lo4 := db4.layout
	reach := func(id int32, crIDs []int32, marks []bool) {
		for si := range lo4.shards {
			if db4.state().indexes[si].RepReaches(id, crIDs, lo4.shards[si]) {
				marks[si] = true
			}
		}
	}
	victim := int32(-1)
	var touched []bool
	for id := int32(0); int(id) < db4.Len(); id++ {
		marks := make([]bool, len(lo4.shards))
		reach(id, db4.state().cr.Of(id), marks)
		for _, a := range db4.state().cr.Dependents(id) {
			stripped := make([]int32, 0, len(db4.state().cr.Of(a)))
			for _, m := range db4.state().cr.Of(a) {
				if m != id {
					stripped = append(stripped, m)
				}
			}
			reach(a, db4.state().cr.Of(a), marks)
			reach(a, stripped, marks)
		}
		n := 0
		for _, m := range marks {
			if m {
				n++
			}
		}
		if n == 1 {
			victim, touched = id, marks
			break
		}
	}
	if victim < 0 {
		t.Skip("no single-shard victim in this population")
	}
	if err := db4.Delete(victim); err != nil {
		t.Fatal(err)
	}
	after := db4.ShardStats()
	for si := range after {
		delta := after[si].Slack - before[si].Slack
		if touched[si] {
			if delta <= 0 {
				t.Fatalf("shard %d: mutation touched it but slack did not move (%d -> %d)", si, before[si].Slack, after[si].Slack)
			}
			continue
		}
		if delta != 0 {
			t.Fatalf("shard %d: untouched by the mutation but accrued %d slack", si, delta)
		}
	}
}
