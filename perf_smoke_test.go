package uvdiagram_test

// Perf smoke gate: the derivation fast path must not regress more than
// 2x against the committed ns/op baseline (perf_baseline.json,
// measured on the CI container class by `go test -run
// TestDerivePerfSmoke -update-perf-baseline`). The threshold is
// deliberately generous — this is a soft gate against accidental
// O(n)-regressions in the hot path, not a precision benchmark — and the
// test is skipped under -short and under the race detector (both
// distort timing far beyond the threshold).

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"
	"time"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
)

const perfBaselinePath = "perf_baseline.json"

var updatePerfBaseline = flag.Bool("update-perf-baseline", false,
	"rewrite perf_baseline.json with this machine's measurement")

type perfBaseline struct {
	// DeriveNSPerOp is the wall clock of one whole-population
	// DeriveCRSets pass at n=800 (paper defaults, strategy IC),
	// best of three runs.
	DeriveNSPerOp int64 `json:"derive_ns_per_op"`
	// ContinuousMoveNSPerOp is the mean wall clock of one
	// ContinuousPNN.Move on a smooth trajectory at n=2000 (mostly
	// safe-circle absorptions with periodic recomputes), best of three
	// runs.
	ContinuousMoveNSPerOp int64 `json:"continuous_move_ns_per_op"`
	// MaintainTickNSPerOp is the mean wall clock of one idle
	// Maintainer.Tick (imbalance sample + slack sweep, no reshard) on a
	// balanced 4-shard database at n=2000, best of three runs — the
	// steady-state overhead a deployment pays every sampling interval.
	MaintainTickNSPerOp int64 `json:"maintain_tick_ns_per_op"`
	// OrderKBuildNSPerObj is the per-object wall clock of a whole
	// BuildOrderK (k=2, default options) at n=800 on the scratch-threaded
	// fast path, best of three runs.
	OrderKBuildNSPerObj int64 `json:"orderk_build_ns_per_obj"`
	// Build3NSPerObj is the per-object wall clock of a whole 3D Build3
	// (default options) at n=600 on the scratch-threaded fast path, best
	// of three runs.
	Build3NSPerObj int64 `json:"build3_ns_per_obj"`
	// DeleteNSPerOp is the mean wall clock of one DB.Delete on a
	// steady 2000-object population at the paper's mid-size density
	// (the output-sensitive path: tightness triage, selective
	// re-derivation, COW leaf surgery), best of three runs.
	DeleteNSPerOp int64 `json:"delete_ns_per_op"`
	// RederivedObjsPerDelete is the mean number of dependents the same
	// run re-derived per delete — the output-sensitivity signal. CI
	// fails soft if it doubles: the tightness triage stopped skipping.
	RederivedObjsPerDelete float64 `json:"rederived_objs_per_delete"`
	// OutOfCorePNNNSPerQuery is the per-query wall clock of one batched
	// PNN round (256 queries, 4 workers) against a database served
	// mmap-backed off a v5 snapshot at n=2000, best of three rounds.
	OutOfCorePNNNSPerQuery int64  `json:"outofcore_pnn_ns_per_query"`
	Note                   string `json:"note"`
}

// loadPerfBaseline reads the committed baseline; absent file is fatal
// in gate mode (the caller names the rebaseline flag).
func loadPerfBaseline(t *testing.T) perfBaseline {
	raw, err := os.ReadFile(perfBaselinePath)
	if err != nil {
		t.Fatalf("no committed baseline (%v); run with -update-perf-baseline", err)
	}
	var base perfBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// updatePerfBaselineField read-modify-writes one field of the baseline
// file, so each smoke test can rebaseline its own metric without
// clobbering the others'.
func updatePerfBaselineField(t *testing.T, mutate func(*perfBaseline)) {
	var base perfBaseline
	if raw, err := os.ReadFile(perfBaselinePath); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			t.Fatal(err)
		}
	}
	mutate(&base)
	base.Note = "best-of-3 wall clocks on the CI container class; CI fails soft at >2x"
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(perfBaselinePath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDerivePerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	f := getDeriveFixture(t, 800)
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		if _, _, err := core.DeriveCRSets(f.store, f.cfg.Domain(), f.tree, f.opts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.DeriveNSPerOp = best.Nanoseconds() })
		t.Logf("wrote %s: derive %v", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	limit := time.Duration(2 * base.DeriveNSPerOp)
	t.Logf("derive n=800: %v (baseline %v, limit %v)", best, time.Duration(base.DeriveNSPerOp), limit)
	if best > limit {
		t.Fatalf("derivation perf smoke: %v exceeds 2x the committed baseline %v — the hot path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.DeriveNSPerOp))
	}
}

// TestContinuousMovePerfSmoke gates the moving-query hot path: a
// smooth random walk where most moves land inside the safe circle
// (cheap point-in-circle checks) and the rest re-evaluate. A >2x
// regression means either the absorption fast path grew work or the
// safe circles collapsed (recompute rate explosion) — both of which
// the subscription engine's push economy depends on.
func TestContinuousMovePerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	cfg := datagen.Config{N: 2000, Side: 10000, Diameter: 40, Seed: 20100301}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const moves = 20000
	const step = 0.5 // well under the observed safe radii (1–20 units)
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		rng := rand.New(rand.NewSource(99))
		pos := uvdiagram.Pt(cfg.Side/2, cfg.Side/2)
		sess, err := db.NewContinuousPNN(pos)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for i := 0; i < moves; i++ {
			pos.X = clampCoord(pos.X+(rng.Float64()*2-1)*step, 1, cfg.Side-1)
			pos.Y = clampCoord(pos.Y+(rng.Float64()*2-1)*step, 1, cfg.Side-1)
			if _, _, err := sess.Move(pos); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(t0) / moves; d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.ContinuousMoveNSPerOp = best.Nanoseconds() })
		t.Logf("wrote %s: continuous move %v", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	if base.ContinuousMoveNSPerOp == 0 {
		t.Skip("no continuous baseline committed yet; run with -update-perf-baseline")
	}
	limit := time.Duration(2 * base.ContinuousMoveNSPerOp)
	t.Logf("continuous move n=%d: %v/op (baseline %v, limit %v)", cfg.N, best, time.Duration(base.ContinuousMoveNSPerOp), limit)
	if best > limit {
		t.Fatalf("continuous move perf smoke: %v/op exceeds 2x the committed baseline %v — the safe-circle fast path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.ContinuousMoveNSPerOp))
	}
}

// TestMaintainTickPerfSmoke gates the maintenance controller's idle
// cost: one Tick on a balanced database is an imbalance sample plus a
// per-shard slack sweep and must stay microseconds-cheap, or running
// the controller at second-scale intervals would tax the server it is
// supposed to protect. A >2x regression means the sampling path grew
// per-object work.
func TestMaintainTickPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	cfg := datagen.Config{N: 2000, Side: 10000, Diameter: 40, Seed: 20100301}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.StartMaintainer(uvdiagram.MaintainOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	const ticks = 5000
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		for i := 0; i < ticks; i++ {
			m.Tick()
		}
		if d := time.Since(t0) / ticks; d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.MaintainTickNSPerOp = best.Nanoseconds() })
		t.Logf("wrote %s: maintain tick %v", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	if base.MaintainTickNSPerOp == 0 {
		t.Skip("no maintain-tick baseline committed yet; run with -update-perf-baseline")
	}
	limit := time.Duration(2 * base.MaintainTickNSPerOp)
	t.Logf("maintain tick n=%d: %v/op (baseline %v, limit %v)", cfg.N, best, time.Duration(base.MaintainTickNSPerOp), limit)
	if best > limit {
		t.Fatalf("maintain tick perf smoke: %v/op exceeds 2x the committed baseline %v — the controller's sampling path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.MaintainTickNSPerOp))
	}
}

// TestOrderKBuildPerfSmoke gates the order-k build fast path
// end-to-end: Workers-parallel scratch-threaded derivation (cross-round
// bound cache, reduced-edge golden polish) plus sequential index
// insertion. A >2x regression means the derivation hot path grew
// per-candidate work or started allocating per round again.
func TestOrderKBuildPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	const n, k = 800, 2
	f := getDeriveFixture(t, n)
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		if _, _, err := core.BuildOrderK(f.store, f.cfg.Domain(), f.tree, k, f.opts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.OrderKBuildNSPerObj = best.Nanoseconds() })
		t.Logf("wrote %s: orderk build %v/obj", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	if base.OrderKBuildNSPerObj == 0 {
		t.Skip("no order-k baseline committed yet; run with -update-perf-baseline")
	}
	limit := time.Duration(2 * base.OrderKBuildNSPerObj)
	t.Logf("orderk build n=%d k=%d: %v/obj (baseline %v, limit %v)", n, k, best, time.Duration(base.OrderKBuildNSPerObj), limit)
	if best > limit {
		t.Fatalf("order-k build perf smoke: %v/obj exceeds 2x the committed baseline %v — the order-k fast path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.OrderKBuildNSPerObj))
	}
}

// TestBuild3PerfSmoke gates the 3D build fast path end-to-end:
// scratch-threaded derivation over the hash grid (per-candidate bound
// rows over the direction lattice, evaluated once per derive call) plus
// sequential octree insertion. A >2x regression means the 3D hot path
// grew per-direction work or started allocating per round again.
func TestBuild3PerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	const n = 600
	const side = 1000.0
	rng := rand.New(rand.NewSource(26))
	objs := make([]uvdiagram.Object3, n)
	for i := range objs {
		objs[i] = uvdiagram.NewObject3(int32(i), rng.Float64()*side, rng.Float64()*side, rng.Float64()*side, 1.5, nil)
	}
	domain := uvdiagram.CubeDomain(side)

	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		if _, err := uvdiagram.Build3(objs, domain, nil); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.Build3NSPerObj = best.Nanoseconds() })
		t.Logf("wrote %s: 3D build %v/obj", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	if base.Build3NSPerObj == 0 {
		t.Skip("no 3D build baseline committed yet; run with -update-perf-baseline")
	}
	limit := time.Duration(2 * base.Build3NSPerObj)
	t.Logf("build3 n=%d: %v/obj (baseline %v, limit %v)", n, best, time.Duration(base.Build3NSPerObj), limit)
	if best > limit {
		t.Fatalf("3D build perf smoke: %v/obj exceeds 2x the committed baseline %v — the 3D fast path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.Build3NSPerObj))
	}
}

func clampCoord(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TestMutationPerfSmoke gates the output-sensitive delete path: mean
// Delete wall clock and mean re-derived dependents per delete on a
// steady population. A >2x ns/op regression means the COW surgery or
// the triage grew work; a >2x rederived-per-delete regression means the
// tightness classifier stopped skipping and deletes degraded back
// toward re-deriving every dependent.
func TestMutationPerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	cfg := datagen.Config{N: 2000, Side: 7000, Diameter: 40, Seed: 7}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int32, cfg.N)
	for i := range live {
		live[i] = int32(i)
	}
	const dels = 60
	best := time.Duration(1<<63 - 1)
	cursor := 0
	for run := 0; run < 3; run++ {
		var spent time.Duration
		for i := 0; i < dels; i++ {
			k := cursor % len(live)
			cursor++
			t0 := time.Now()
			if err := db.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			spent += time.Since(t0)
			o := uvdiagram.NewObject(db.NextID(), float64(37+(cursor*131)%6900), float64(91+(cursor*197)%6900), 20, nil)
			if err := db.Insert(o); err != nil {
				t.Fatal(err)
			}
			live[k] = o.ID
		}
		if d := spent / dels; d < best {
			best = d
		}
	}
	ms := db.MutationStats()
	rederived := float64(ms.Rederived) / float64(ms.Deletes)

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) {
			b.DeleteNSPerOp = best.Nanoseconds()
			b.RederivedObjsPerDelete = rederived
		})
		t.Logf("wrote %s: delete %v, rederived/delete %.2f", perfBaselinePath, best, rederived)
		return
	}

	base := loadPerfBaseline(t)
	if base.DeleteNSPerOp == 0 {
		t.Skip("no mutation baseline committed yet; run with -update-perf-baseline")
	}
	t.Logf("delete n=%d: %v/op, %.2f rederived/delete (baselines %v, %.2f)",
		cfg.N, best, rederived, time.Duration(base.DeleteNSPerOp), base.RederivedObjsPerDelete)
	if best > time.Duration(2*base.DeleteNSPerOp) {
		t.Fatalf("mutation perf smoke: delete %v/op exceeds 2x the committed baseline %v — the output-sensitive path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.DeleteNSPerOp))
	}
	if base.RederivedObjsPerDelete > 0 && rederived > 2*base.RederivedObjsPerDelete {
		t.Fatalf("mutation perf smoke: %.2f re-derived dependents per delete exceeds 2x the committed baseline %.2f — the tightness triage stopped skipping (rebaseline deliberately with -update-perf-baseline if this is expected)",
			rederived, base.RederivedObjsPerDelete)
	}
}

// TestOutOfCorePerfSmoke gates the out-of-core serving hot path:
// per-query wall clock of a batched PNN round against a database
// served mmap-backed off a v5 snapshot. A >2x regression means the
// zero-copy read path started copying or the snapshot open stopped
// handing queries page views (the heap-vs-mmap economy end to end is
// the cold-open workload of `go run ./bench` against pnn-serve).
func TestOutOfCorePerfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("perf smoke skipped under the race detector")
	}

	f := getOutOfCoreFixture(t)
	opts := &uvdiagram.BatchOptions{Workers: 4}
	best := time.Duration(1<<63 - 1)
	for run := 0; run < 3; run++ {
		t0 := time.Now()
		if _, err := f.db.BatchNN(f.queries, opts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0) / time.Duration(len(f.queries)); d < best {
			best = d
		}
	}

	if *updatePerfBaseline {
		updatePerfBaselineField(t, func(b *perfBaseline) { b.OutOfCorePNNNSPerQuery = best.Nanoseconds() })
		t.Logf("wrote %s: out-of-core batched PNN %v/query", perfBaselinePath, best)
		return
	}

	base := loadPerfBaseline(t)
	if base.OutOfCorePNNNSPerQuery == 0 {
		t.Skip("no out-of-core baseline committed yet; run with -update-perf-baseline")
	}
	limit := time.Duration(2 * base.OutOfCorePNNNSPerQuery)
	t.Logf("out-of-core batched PNN n=2000: %v/query (baseline %v, limit %v)", best, time.Duration(base.OutOfCorePNNNSPerQuery), limit)
	if best > limit {
		t.Fatalf("out-of-core perf smoke: %v/query exceeds 2x the committed baseline %v — the mmap serving path regressed (rebaseline deliberately with -update-perf-baseline if this is expected)",
			best, time.Duration(base.OutOfCorePNNNSPerQuery))
	}
}
