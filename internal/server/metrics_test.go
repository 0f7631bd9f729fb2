package server

import (
	"sync"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// metricsMap fetches the server's snapshot over the wire as a map.
func metricsMap(t *testing.T, cli *Client) map[string]float64 {
	t.Helper()
	ms, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// TestMetricsExactness is the counter contract under concurrent load:
// one decoded request frame bumps exactly one ops.* counter, so after
// a quiesced burst of known size the counts must EQUAL the ground
// truth — not approximate it. Race-clean by construction (run under
// -race in CI).
func TestMetricsExactness(t *testing.T) {
	cli, srv := startServer(t, 60)
	const (
		workers  = 8
		perOp    = 25 // per worker, per opcode
		batchLen = 4
	)
	dom := srv.DB().Domain()
	q := uvdiagram.Pt((dom.Min.X+dom.Max.X)/2, (dom.Min.Y+dom.Max.Y)/2)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perOp; i++ {
				if _, err := cli.PNN(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := cli.TopKPNN(q, 3); err != nil {
					t.Error(err)
					return
				}
				if _, err := cli.Stats(); err != nil {
					t.Error(err)
					return
				}
				qs := make([]uvdiagram.Point, batchLen)
				for j := range qs {
					qs[j] = q
				}
				if _, err := cli.BatchPNN(qs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	m := metricsMap(t, cli)
	want := map[string]float64{
		"ops.pnn":       workers * perOp,
		"ops.topk":      workers * perOp,
		"ops.stats":     workers * perOp,
		"ops.batch_pnn": workers * perOp,
		"ops.errors":    0,
		"ops.unknown":   0,
	}
	for name, w := range want {
		if got := m[name]; got != w {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
	// The metrics fetch itself was decoded before the snapshot ran.
	if got := m["ops.metrics"]; got != 1 {
		t.Errorf("ops.metrics = %g, want 1", got)
	}
	// Every answered request put one frame out before the snapshot; the
	// snapshot's own response had not.
	frames := float64(4 * workers * perOp)
	if got := m["conn.frames_out"]; got != frames {
		t.Errorf("conn.frames_out = %g, want %g", got, frames)
	}
	if w := m["conn.write_calls"]; w < 1 || w > frames {
		t.Errorf("conn.write_calls = %g, want 1..%g", w, frames)
	}
	if r := m["conn.read_calls"]; r < 1 {
		t.Errorf("conn.read_calls = %g, want ≥ 1", r)
	}
	if got := m["db.live"]; got != 60 {
		t.Errorf("db.live = %g, want 60", got)
	}
}

// TestMetricsMaintenanceFeed verifies the DB-observer wiring: engine
// maintenance fired through the server's DB shows up in the maint.*
// counters, and the cache.rtree_* gauges mirror the R-tree memo
// counters of DB.BufferPoolStats.
func TestMetricsMaintenanceFeed(t *testing.T) {
	cli, srv := startServer(t, 60)
	db := srv.DB()
	if err := db.Compact(t.Context()); err != nil {
		t.Fatal(err)
	}
	m := metricsMap(t, cli)
	if got := m["maint.compacts"]; got != 1 {
		t.Errorf("maint.compacts = %g, want 1", got)
	}
	if got := m["maint.compact.count"]; got != 1 {
		t.Errorf("maint.compact.count = %g, want 1", got)
	}
	if _, err := cli.PossibleKNN(uvdiagram.Pt(500, 500), 2); err != nil {
		t.Fatal(err)
	}
	m = metricsMap(t, cli)
	bp := db.BufferPoolStats()
	if bp.RTreeHits+bp.RTreeMisses == 0 {
		t.Error("a k-NN request left the R-tree memo counters at zero")
	}
	if m["cache.rtree_hits"] != float64(bp.RTreeHits) || m["cache.rtree_misses"] != float64(bp.RTreeMisses) {
		t.Errorf("cache gauges (%g, %g) != BufferPoolStats (%d, %d)",
			m["cache.rtree_hits"], m["cache.rtree_misses"], bp.RTreeHits, bp.RTreeMisses)
	}
	if _, ok := m["cache.leaf_hits"]; ok {
		t.Error("cache.leaf_hits still exported; the grid has no leaf cache")
	}
}

// TestPushTimeoutConfig covers the Config.PushTimeout satellite: the
// default fills in, an explicit value sticks and a negative one is
// rejected by NewWithConfig.
func TestPushTimeoutConfig(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.PushTimeout != 5*time.Second {
		t.Fatalf("default PushTimeout = %v, want 5s", cfg.PushTimeout)
	}
	cfg = Config{PushTimeout: 250 * time.Millisecond}.withDefaults()
	if cfg.PushTimeout != 250*time.Millisecond {
		t.Fatalf("explicit PushTimeout overridden to %v", cfg.PushTimeout)
	}
	db := testDB(t, 10)
	if _, err := NewWithConfig(db, nil, Config{PushTimeout: -time.Second}); err == nil {
		t.Fatal("NewWithConfig accepted a negative PushTimeout")
	}
	srv, err := NewWithConfig(db, nil, Config{})
	if err != nil {
		t.Fatalf("NewWithConfig with zero config: %v", err)
	}
	if srv.cfg.PushTimeout != 5*time.Second {
		t.Fatalf("server PushTimeout = %v, want default 5s", srv.cfg.PushTimeout)
	}
}

// testDB builds a small database for direct-construction tests.
func testDB(t *testing.T, n int) *uvdiagram.DB {
	t.Helper()
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMetricsSnapshotSorted pins the snapshot's wire contract: unique
// names, sorted ascending, none empty.
func TestMetricsSnapshotSorted(t *testing.T) {
	cli, _ := startServer(t, 20)
	ms, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	if ms[0].Name == "" {
		t.Fatal("empty metric name")
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name >= ms[i].Name {
			t.Fatalf("snapshot not sorted/unique: %q before %q", ms[i-1].Name, ms[i].Name)
		}
	}
}

// TestMetricsQueryPhases: every answered PNN and TopK observes its
// traverse/retrieve/prob timings exactly once, under names outside
// ops.* (whose sum is the exact frame count).
func TestMetricsQueryPhases(t *testing.T) {
	cli, srv := startServer(t, 60)
	dom := srv.DB().Domain()
	q := uvdiagram.Pt((dom.Min.X+dom.Max.X)/2, (dom.Min.Y+dom.Max.Y)/2)
	phases := []string{"query.traverse", "query.retrieve", "query.prob"}

	before := metricsMap(t, cli)
	for _, p := range phases {
		if got := before[p+".count"]; got != 0 {
			t.Errorf("%s.count = %g before any query", p, got)
		}
	}
	if _, err := cli.PNN(q); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.TopKPNN(q, 2); err != nil {
		t.Fatal(err)
	}
	// An out-of-domain PNN fails in-band and is not an observation.
	if _, err := cli.PNN(uvdiagram.Pt(dom.Max.X+1, dom.Max.Y+1)); err == nil {
		t.Fatal("out-of-domain PNN succeeded")
	}
	after := metricsMap(t, cli)
	for _, p := range phases {
		if got := after[p+".count"]; got != 2 {
			t.Errorf("%s.count = %g after one PNN and one TopK, want 2", p, got)
		}
	}
	if after["query.prob.sum_ns"] <= 0 {
		t.Errorf("query.prob.sum_ns = %g, want > 0", after["query.prob.sum_ns"])
	}
}
