package uvdiagram

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"uvdiagram/internal/datagen"
)

func buildMaintDB(t *testing.T) (*DB, datagen.Config) {
	t.Helper()
	cfg := datagen.Config{N: 80, Side: 2000, Diameter: 40, Seed: 97}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db, cfg
}

// TestMaintainEvents verifies the observer feed: Compact fires a typed
// event with its kind and duration, and an unregistered observer hears
// nothing.
func TestMaintainEvents(t *testing.T) {
	db, _ := buildMaintDB(t)
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
	if len(evs) != 1 || evs[0].Kind != MaintCompact || evs[0].Err != nil || evs[0].Dur <= 0 {
		t.Fatalf("Compact events = %+v, want one successful compact with its duration", evs)
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

// TestCompactRace runs two Compact storms against delete+insert churn.
// Every one of them holds the store lock exclusively, so no rebuild can
// read a registry a write is changing or publish epochs and a registry
// over another rebuild's: the churned database must answer bitwise like
// a fresh build of the survivors, sharded the same way or not at all,
// and -race must stay quiet.
func TestCompactRace(t *testing.T) {
	cfg := datagen.Config{N: 200, Side: 2000, Diameter: 40, Seed: 7}
	all := datagen.Uniform(cfg)
	opts := &Options{Shards: 4}
	db, err := Build(all, cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	storm := func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}
	stopStorms := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopStorms() // also on a t.Fatal below
	wg.Add(2)
	go storm()
	go storm()

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

// TestCompactPublishesOnce races readers against a storm of Compacts on
// an unchanging population. Compact publishes every shard index, the
// R-tree and the registry in one state swap, so every ShardStats call
// reads one generation across all shards, every BatchNN is bitwise the
// answer taken before the storm, and a moving session's answer set is
// PNN's at the same point after every move.
func TestCompactPublishesOnce(t *testing.T) {
	cfg := datagen.Config{N: 2000, Seed: 50}
	db, err := Build(datagen.Uniform(cfg), cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	side := cfg.Domain().Max.X
	rng := rand.New(rand.NewSource(50))
	qs := queryGrid(rng, side, 32)
	want, err := db.BatchNN(qs, &BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantStr := fmt.Sprint(want) // shortest round-trip floats: equal strings are equal bits
	sess, err := db.NewContinuousPNN(Pt(side/2, side/2))
	if err != nil {
		t.Fatal(err)
	}

	const compacts = 20
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(step func() error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := step(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(3)
	var lastGen uint64
	go reader(func() error {
		stats := db.ShardStats()
		for i, s := range stats {
			if s.Gen != stats[0].Gen {
				return fmt.Errorf("ShardStats: shard %d at generation %d, shard 0 at %d", i, s.Gen, stats[0].Gen)
			}
		}
		if stats[0].Gen < lastGen {
			return fmt.Errorf("ShardStats: generation fell from %d to %d", lastGen, stats[0].Gen)
		}
		lastGen = stats[0].Gen
		return nil
	})
	go reader(func() error {
		got, err := db.BatchNN(qs, &BatchOptions{Workers: 2})
		if err != nil {
			return err
		}
		if gotStr := fmt.Sprint(got); gotStr != wantStr {
			return fmt.Errorf("BatchNN during Compact: %s, want %s", gotStr, wantStr)
		}
		return nil
	})
	walk := rand.New(rand.NewSource(51))
	go reader(func() error {
		p := sess.Position()
		q := Pt(min(max(p.X+walk.NormFloat64()*150, 0), side), min(max(p.Y+walk.NormFloat64()*150, 0), side))
		if _, _, err := sess.Move(q); err != nil {
			return err
		}
		answers, _, err := db.PNN(q)
		if err != nil {
			return err
		}
		ids := make([]int32, len(answers))
		for i, a := range answers {
			ids[i] = a.ID
		}
		slices.Sort(ids)
		if !slices.Equal(sess.AnswerIDs(), ids) {
			return fmt.Errorf("session at %v answers %v, PNN answers %v", q, sess.AnswerIDs(), ids)
		}
		return nil
	})
	for range compacts {
		if err := db.Compact(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	for i, s := range db.ShardStats() {
		if s.Gen != compacts {
			t.Fatalf("shard %d at generation %d after %d Compacts", i, s.Gen, compacts)
		}
	}
}
