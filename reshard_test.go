package uvdiagram

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uvdiagram/internal/datagen"
)

// TestConcurrentCompactDuringChurn is the -race exercise of the store
// lock under a realistic mix: query goroutines and a mutator
// synchronized by an external RWMutex (as the server does it), while
// Compact and Reshard rounds run with NO external lock at all.
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

	// Maintenance outside the external lock: Compact and Reshard rounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for _, op := range []func(context.Context) error{db.Compact, db.Reshard} {
				if err := op(context.Background()); err != nil {
					errs <- err
					return
				}
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

// TestWeightedMedianCuts checks the quantile layout: strictly
// increasing cuts spanning the domain, near-even per-shard loads on a
// skewed pile-up, and the equal-strip fallback on degenerate data.
func TestWeightedMedianCuts(t *testing.T) {
	const side = 1000.0
	domain := SquareDomain(side)
	rng := rand.New(rand.NewSource(4))
	centers := make([]Point, 400)
	for i := range centers {
		// Clustered pile-up in one corner.
		centers[i] = Pt(clamp(rng.NormFloat64()*80+200, 0, side), clamp(rng.NormFloat64()*80+700, 0, side))
	}
	xs, ys := WeightedMedian{}.Cuts(domain, 4, 4, centers)
	for _, cutset := range [][]float64{xs, ys} {
		if len(cutset) != 5 {
			t.Fatalf("cut count %d, want 5", len(cutset))
		}
		if cutset[0] != 0 || cutset[4] != side {
			t.Fatalf("cuts %v do not span the domain", cutset)
		}
		for i := 1; i < len(cutset); i++ {
			if cutset[i] <= cutset[i-1] {
				t.Fatalf("cuts %v not strictly increasing", cutset)
			}
		}
	}
	// Quantile columns each hold ~1/4 of the centers.
	colCount := make([]int, 4)
	for _, c := range centers {
		colCount[lastLE(xs, c.X)]++
	}
	for i, n := range colCount {
		if n < 80 || n > 120 {
			t.Fatalf("column %d holds %d of 400 centers (cuts %v)", i, n, xs)
		}
	}
	// Degenerate distribution: all identical coordinates → equal-strip
	// fallback, still strictly increasing.
	same := make([]Point, 50)
	for i := range same {
		same[i] = Pt(500, 500)
	}
	xs, _ = WeightedMedian{}.Cuts(domain, 4, 4, same)
	if fmt.Sprint(xs) != fmt.Sprint(cuts(0, side, 4)) {
		t.Fatalf("degenerate cuts %v, want equal strips", xs)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TestReshardBalancesSkew checks the operational claim behind Reshard:
// on a Gaussian pile-up over a 4×4 equal-strip grid, the max/mean
// per-shard load imbalance drops by at least 2× after the online
// reshard, and the shard loads still sum to the population.
func TestReshardBalancesSkew(t *testing.T) {
	const side = 4000.0
	cfg := datagen.Config{N: 300, Side: side, Diameter: 40, Seed: 8}
	objs := datagen.Skewed(cfg, side/10)
	db, err := Build(objs, cfg.Domain(), &Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	before := db.LoadImbalance()
	if before < 2 {
		t.Fatalf("equal strips on a σ=side/10 pile-up give imbalance %.2f — dataset not skewed enough to test", before)
	}
	if err := db.Reshard(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := db.LoadImbalance()
	if after <= 0 || before/after < 2 {
		t.Fatalf("imbalance %.2f -> %.2f (%.1fx), want >= 2x", before, after, before/after)
	}
	total := 0
	for _, st := range db.ShardStats() {
		total += st.Live
	}
	if total != db.Len() {
		t.Fatalf("shard loads sum to %d, live population is %d", total, db.Len())
	}
	xs, ys := db.ShardCuts()
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("cut lengths %d/%d after reshard, want 5/5", len(xs), len(ys))
	}
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
		lo := db.lo()
		for i := range lo.shards {
			if lo.shards[i].ep().index.CR() != db.cr {
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

// TestContinuousSurvivesReshard walks a moving query while the layout
// is swapped under it mid-walk; the session must transparently re-open
// and keep serving the single-shard engine's answer sets.
func TestContinuousSurvivesReshard(t *testing.T) {
	const side = 2000.0
	cfg := datagen.Config{N: 80, Side: side, Diameter: 40, Seed: 12}
	objs := datagen.Skewed(cfg, side/6)
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
	for i := 1; i <= 120; i++ {
		if i == 60 {
			if err := db.Reshard(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
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
			t.Fatalf("Move(%v) answer sets diverge after reshard: %v vs %v", q, ga, wa)
		}
	}
}

// TestOrderKStaleAfterReshard: the order-k snapshot must refuse to
// answer once the layout has been swapped, even though no object
// mutated.
func TestOrderKStaleAfterReshard(t *testing.T) {
	cfg := datagen.Config{N: 50, Side: 2000, Diameter: 40, Seed: 19}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.NewOrderKIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.PossibleKNN(Pt(500, 500)); err != nil {
		t.Fatalf("fresh order-k query failed: %v", err)
	}
	if err := db.Reshard(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.PossibleKNN(Pt(500, 500)); err == nil {
		t.Fatal("order-k snapshot answered after a Reshard invalidated it")
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
	rt := db.route()
	owner, err := rt.plan(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if owner[i] != rt.lo.shardIdx(q) {
			t.Fatalf("plan owner[%d] = %d, want %d", i, owner[i], rt.lo.shardIdx(q))
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
	lo4 := db4.lo()
	reach := func(id int32, crIDs []int32, marks []bool) {
		for si := range lo4.shards {
			if lo4.shards[si].ep().index.RepReaches(id, crIDs, lo4.shards[si].rect) {
				marks[si] = true
			}
		}
	}
	victim := int32(-1)
	var touched []bool
	for id := int32(0); int(id) < db4.Len(); id++ {
		marks := make([]bool, len(lo4.shards))
		reach(id, db4.cr.Of(id), marks)
		for _, a := range db4.cr.Dependents(id) {
			stripped := make([]int32, 0, len(db4.cr.Of(a)))
			for _, m := range db4.cr.Of(a) {
				if m != id {
					stripped = append(stripped, m)
				}
			}
			reach(a, db4.cr.Of(a), marks)
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
