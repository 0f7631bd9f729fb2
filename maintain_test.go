package uvdiagram

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"uvdiagram/internal/datagen"
)

// maintTestOptions is the deterministic controller configuration the
// hysteresis tests drive by hand: the background loop idles (hour-long
// interval) and every decision comes from an explicit Tick with an
// injected clock.
func maintTestOptions() MaintainOptions {
	return MaintainOptions{
		Interval:     time.Hour,
		HighWater:    2.0,
		LowWater:     1.5,
		SustainTicks: 3,
		MinInterval:  time.Minute,
	}
}

func buildMaintDB(t *testing.T) (*DB, datagen.Config) {
	t.Helper()
	cfg := datagen.Config{N: 80, Side: 2000, Diameter: 40, Seed: 97}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db, cfg
}

// addCluster inserts k objects in a tight box around (fx, fy) of the
// domain (fractions of the side), returning their ids. A tight cluster
// lands in one shard and spikes LoadImbalance.
func addCluster(t *testing.T, db *DB, cfg datagen.Config, k int, fx, fy float64) []int32 {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ids := make([]int32, 0, k)
	for j := 0; j < k; j++ {
		x := (fx + 0.01*rng.Float64()) * cfg.Side
		y := (fy + 0.01*rng.Float64()) * cfg.Side
		id := db.NextID()
		if err := db.Insert(NewObject(id, x, y, cfg.Diameter/2, nil)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func removeCluster(t *testing.T, db *DB, ids []int32) {
	t.Helper()
	for _, id := range ids {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaintainOptionsValidate rejects configurations that cannot
// implement hysteresis.
func TestMaintainOptionsValidate(t *testing.T) {
	db, _ := buildMaintDB(t)
	for _, opts := range []MaintainOptions{
		{LowWater: 0.5, HighWater: 2},   // imbalance is never below 1
		{LowWater: 1.5, HighWater: 1.5}, // empty band
		{LowWater: 1.5, HighWater: 1.2}, // inverted band
		{HighWater: math.NaN()},         // never reshards
		{LowWater: math.NaN()},          // never resets pressure
		{HighWater: math.Inf(1)},        // never reshards
	} {
		if _, err := db.StartMaintainer(opts); err == nil {
			t.Fatalf("StartMaintainer(%+v) accepted invalid watermarks", opts)
		}
	}
	if db.Maintainer() != nil {
		t.Fatal("failed StartMaintainer left a maintainer attached")
	}
}

// TestMaintainerSingleAttach proves the at-most-one-controller contract
// and that Stop detaches cleanly for a successor.
func TestMaintainerSingleAttach(t *testing.T) {
	db, _ := buildMaintDB(t)
	m, err := db.StartMaintainer(maintTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if db.Maintainer() != m {
		t.Fatal("Maintainer() does not return the attached controller")
	}
	if _, err := db.StartMaintainer(maintTestOptions()); err == nil {
		t.Fatal("second StartMaintainer succeeded with one already attached")
	}
	m.Stop()
	m.Stop() // idempotent
	if db.Maintainer() != nil {
		t.Fatal("Stop left the controller attached")
	}
	m2, err := db.StartMaintainer(maintTestOptions())
	if err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	m2.Stop()
}

// TestMaintainerHysteresisOscillation is the bounded-reshard property:
// skew that spikes above the high watermark but keeps dipping below the
// low watermark before sustaining never accumulates enough pressure to
// fire — an oscillating workload cannot make the controller thrash.
func TestMaintainerHysteresisOscillation(t *testing.T) {
	db, cfg := buildMaintDB(t)
	opts := maintTestOptions()
	m, err := db.StartMaintainer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	if imb := db.LoadImbalance(); imb > opts.LowWater {
		t.Fatalf("uniform base imbalance %.2f above the low watermark %.2f; retune the fixture", imb, opts.LowWater)
	}
	for round := 0; round < 5; round++ {
		ids := addCluster(t, db, cfg, 3*cfg.N, 0.70, 0.70)
		if imb := db.LoadImbalance(); imb < opts.HighWater {
			t.Fatalf("round %d: clustered imbalance %.2f below the high watermark %.2f", round, imb, opts.HighWater)
		}
		// One tick short of SustainTicks, then the skew collapses.
		for k := 0; k < opts.SustainTicks-1; k++ {
			m.Tick()
		}
		removeCluster(t, db, ids)
		m.Tick() // at or below LowWater: pressure resets
		if st := m.Stats(); st.Pressure != 0 {
			t.Fatalf("round %d: pressure %d after dip below the low watermark, want 0", round, st.Pressure)
		}
	}
	if st := m.Stats(); st.Reshards != 0 {
		t.Fatalf("oscillating skew fired %d reshards, want 0", st.Reshards)
	}
}

// TestMaintainerHysteresisSustained is the convergence property:
// sustained skew fires exactly one reshard once the pressure window
// fills, the reshard brings imbalance below the low watermark, and the
// cooldown blocks a re-fire until the injected clock passes it.
func TestMaintainerHysteresisSustained(t *testing.T) {
	db, cfg := buildMaintDB(t)
	opts := maintTestOptions()
	m, err := db.StartMaintainer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	addCluster(t, db, cfg, 3*cfg.N, 0.70, 0.70)
	for k := 0; k < opts.SustainTicks; k++ {
		if st := m.Stats(); st.Reshards != 0 {
			t.Fatalf("reshard fired after %d ticks, before the sustain window filled", k)
		}
		m.Tick()
	}
	st := m.Stats()
	if st.Reshards != 1 {
		t.Fatalf("sustained skew fired %d reshards, want exactly 1", st.Reshards)
	}
	if imb := db.LoadImbalance(); imb > opts.LowWater {
		t.Fatalf("post-reshard imbalance %.2f above the low watermark %.2f: no convergence", imb, opts.LowWater)
	}
	if st.Pressure != 0 {
		t.Fatalf("pressure %d after a successful reshard, want 0", st.Pressure)
	}

	// Balanced ticks stay quiet.
	for k := 0; k < 3; k++ {
		m.Tick()
	}
	if st := m.Stats(); st.Reshards != 1 {
		t.Fatalf("balanced ticks fired %d extra reshards", st.Reshards-1)
	}

	// New sustained skew inside the cooldown: pressure fills but the
	// reshard is held until the clock passes MinInterval.
	addCluster(t, db, cfg, 4*cfg.N, 0.05, 0.05)
	for k := 0; k < opts.SustainTicks+2; k++ {
		m.Tick()
	}
	st = m.Stats()
	if st.Reshards != 1 {
		t.Fatalf("reshard fired inside the cooldown (%d total)", st.Reshards)
	}
	if st.CooldownSkips == 0 {
		t.Fatal("cooldown held no tick despite sustained pressure")
	}
	now = now.Add(opts.MinInterval + time.Second)
	m.Tick()
	if st := m.Stats(); st.Reshards != 2 {
		t.Fatalf("reshard did not fire after the cooldown expired (%d total)", st.Reshards)
	}
}

// TestMaintainEvents verifies the observer feed: every maintenance
// path fires a typed event with its kind and imbalance bracket.
func TestMaintainEvents(t *testing.T) {
	db, cfg := buildMaintDB(t)
	var mu sync.Mutex
	var events []MaintEvent
	db.OnMaintenance(func(ev MaintEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	take := func() []MaintEvent {
		mu.Lock()
		defer mu.Unlock()
		out := events
		events = nil
		return out
	}

	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs := take()
	if len(evs) != 1 || evs[0].Kind != MaintCompact || evs[0].ImbalanceBefore != 0 || evs[0].ImbalanceAfter != 0 {
		t.Fatalf("Compact events = %+v, want one compact without an imbalance bracket", evs)
	}

	addCluster(t, db, cfg, 2*cfg.N, 0.70, 0.70)
	before := db.LoadImbalance()
	if err := db.Reshard(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs = take()
	if len(evs) != 1 || evs[0].Kind != MaintReshard {
		t.Fatalf("Reshard events = %+v, want one reshard", evs)
	}
	if evs[0].ImbalanceBefore != before || evs[0].ImbalanceAfter >= before {
		t.Fatalf("reshard event imbalance bracket %.2f -> %.2f, want before=%.2f and a drop",
			evs[0].ImbalanceBefore, evs[0].ImbalanceAfter, before)
	}

	db.OnMaintenance(nil)
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if evs := take(); len(evs) != 0 {
		t.Fatalf("unregistered observer still received %d events", len(evs))
	}
}

// TestDomainErrorsTyped verifies the typed out-of-domain contract of
// the session paths: NewContinuousPNN, Move and AdvanceAll all fail an
// out-of-domain position with a *DomainError matching ErrOutOfDomain,
// and AdvanceAll reports it per session without touching the others.
func TestDomainErrorsTyped(t *testing.T) {
	db, cfg := buildMaintDB(t)
	out := Pt(-cfg.Side, cfg.Side/2)

	if _, err := db.NewContinuousPNN(out); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("NewContinuousPNN out of domain: err = %v, want ErrOutOfDomain", err)
	}
	var de *DomainError
	_, err := db.NewContinuousPNN(out)
	if !errors.As(err, &de) || de.Point != out || de.Domain != db.Domain() {
		t.Fatalf("NewContinuousPNN error %v does not carry the point and domain", err)
	}

	in := Pt(cfg.Side/2, cfg.Side/2)
	sess, err := db.NewContinuousPNN(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Move(out); !errors.Is(err, ErrOutOfDomain) {
		t.Fatalf("Move out of domain: err = %v, want ErrOutOfDomain", err)
	}
	if got := sess.Position(); got != in {
		t.Fatalf("failed Move changed the session position to %v, want %v", got, in)
	}

	other, err := db.NewContinuousPNN(in)
	if err != nil {
		t.Fatal(err)
	}
	qs := []Point{out, Pt(cfg.Side/4, cfg.Side/4)}
	_, errs := db.AdvanceAll([]*ContinuousPNN{sess, other}, qs, nil)
	if !errors.Is(errs[0], ErrOutOfDomain) {
		t.Fatalf("AdvanceAll session 0: err = %v, want ErrOutOfDomain", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("AdvanceAll session 1 (in domain) failed: %v", errs[1])
	}
	if got := other.Position(); got != qs[1] {
		t.Fatalf("in-domain session did not advance: at %v, want %v", got, qs[1])
	}
	if got := sess.Position(); got != in {
		t.Fatalf("out-of-domain session moved to %v, want unchanged %v", got, in)
	}
}

// TestMaintainerBackoff drives the failure path: after Stop cancels the
// controller's context every Reshard fails, so sustained-pressure ticks
// past each backoff window must double the backoff from MinInterval up
// to its 8× cap, and a tick at or below LowWater must reset it.
func TestMaintainerBackoff(t *testing.T) {
	db, cfg := buildMaintDB(t)
	opts := maintTestOptions()
	m, err := db.StartMaintainer(opts)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	m.Stop() // cancels m.ctx: every Reshard the controller runs fails

	ids := addCluster(t, db, cfg, 3*cfg.N, 0.70, 0.70)
	for k := 0; k < opts.SustainTicks-1; k++ {
		m.Tick()
	}
	for i, want := range []time.Duration{1, 2, 4, 8, 8} {
		m.Tick()
		st := m.Stats()
		if st.ReshardFailures != uint64(i+1) || st.Reshards != 0 || st.Backoff != want*opts.MinInterval {
			t.Fatalf("failure %d: %d failures, %d reshards, backoff %v; want %d, 0, %v",
				i+1, st.ReshardFailures, st.Reshards, st.Backoff, i+1, want*opts.MinInterval)
		}
		m.Tick() // inside the backoff window: held, no new attempt
		if st := m.Stats(); st.ReshardFailures != uint64(i+1) {
			t.Fatalf("failure %d: a tick inside the backoff window attempted a reshard", i+1)
		}
		now = now.Add(st.Backoff)
	}

	removeCluster(t, db, ids)
	m.Tick()
	if st := m.Stats(); st.Backoff != 0 || st.Pressure != 0 {
		t.Fatalf("tick at imbalance %.2f left backoff %v, pressure %d; want both reset",
			st.LastImbalance, st.Backoff, st.Pressure)
	}
}

// TestCompactReshardRace runs a Compact storm and a Reshard storm
// against delete+insert churn. Every one of them holds the store lock
// exclusively, so no rebuild can publish into a retired layout or read
// a registry a write is changing: the churned database must answer
// bitwise like a fresh build of the survivors, sharded the same way or
// not at all.
func TestCompactReshardRace(t *testing.T) {
	cfg := datagen.Config{N: 200, Side: 2000, Diameter: 40, Seed: 7}
	all := datagen.Uniform(cfg)
	opts := &Options{Shards: 4}
	db, err := Build(all, cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	storm := func(op func(context.Context) error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := op(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}
	stopStorms := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopStorms() // also on a t.Fatal below
	wg.Add(2)
	go storm(db.Reshard)
	go storm(db.Compact)

	pairs := 150
	if RaceEnabled {
		pairs = 75 // the race CI step runs this five times
	}
	rng := rand.New(rand.NewSource(3))
	var dead []int32
	for range pairs {
		id := int32(rng.Intn(int(db.NextID())))
		if db.Alive(id) {
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			dead = append(dead, id)
		}
		o := NewObject(db.NextID(), rng.Float64()*cfg.Side, rng.Float64()*cfg.Side, cfg.Diameter/2, nil)
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
		all = append(all, o)
	}
	stopStorms()

	qs := queryGrid(rng, cfg.Side, 16)
	assertDBsEquivalent(t, "vs same shards", db, survivorReference(t, all, dead, cfg.Domain(), opts), qs)
	assertDBsEquivalent(t, "vs one shard", db, survivorReference(t, all, dead, cfg.Domain(), nil), qs)
}

// BenchmarkMaintainTick is the cost of one idle controller tick — a
// LoadImbalance sample plus the pager vacuum on a balanced database
// (the steady-state overhead a deployment pays every Interval).
func BenchmarkMaintainTick(b *testing.B) {
	cfg := datagen.Config{N: 400, Side: 2000, Diameter: 40, Seed: 97}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	m, err := db.StartMaintainer(maintTestOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}
