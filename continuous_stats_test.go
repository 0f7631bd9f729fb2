package uvdiagram_test

import (
	"context"
	"math/rand"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// statsModel mirrors the documented counter semantics: Moves counts
// successful Move calls, Recomputes counts completed re-evaluations
// (the opening one included), and failed operations charge nothing.
type statsModel struct {
	moves, recomputes int
}

func (m *statsModel) check(t *testing.T, sess *uvdiagram.ContinuousPNN, when string) {
	t.Helper()
	st := sess.Stats()
	if st.Moves != m.moves || st.Recomputes != m.recomputes {
		t.Fatalf("%s: counters {Moves:%d Recomputes:%d}, model {%d %d}",
			when, st.Moves, st.Recomputes, m.moves, m.recomputes)
	}
	if st.IndexIOs < int64(st.Recomputes) {
		t.Fatalf("%s: %d recomputes but only %d leaf reads", when, st.Recomputes, st.IndexIOs)
	}
}

func answersMatch(t *testing.T, db *uvdiagram.DB, ids []int32, q uvdiagram.Point, when string) {
	t.Helper()
	want, _, err := db.PNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("%s: session answers %v, PNN answers %v", when, ids, want)
	}
	for i := range want {
		if ids[i] != want[i].ID {
			t.Fatalf("%s: session answers %v, PNN answers %v", when, ids, want)
		}
	}
}

// TestContinuousStatsExact walks one session through shard crossings,
// churn, a Compact epoch swap, and both failure
// paths (in-session recompute failure and re-open failure), asserting
// after every step that the counters match the deterministic model —
// in particular that a FAILED re-open leaves them untouched (the old
// code folded the prior before NewContinuousPNN could fail, double
// counting on recovery).
func TestContinuousStatsExact(t *testing.T) {
	cfg := datagen.Config{N: 300, Side: 2000, Diameter: 40, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	q := uvdiagram.Pt(1000, 1000)
	sess, err := db.NewContinuousPNN(q)
	if err != nil {
		t.Fatal(err)
	}
	model := &statsModel{recomputes: 1} // the opening evaluation
	model.check(t, sess, "open")

	move := func(p uvdiagram.Point, when string) {
		t.Helper()
		ids, recomputed, err := sess.Move(p)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		model.moves++
		if recomputed {
			model.recomputes++
		}
		model.check(t, sess, when)
		answersMatch(t, db, ids, p, when)
		q = p
	}

	rng := rand.New(rand.NewSource(5))
	jitter := func() float64 { return (rng.Float64()*2 - 1) }

	// Phase 1: a walk mixing tiny steps (safe-circle hits) with jumps
	// across the whole domain (shard crossings and re-opens).
	for k := 0; k < 60; k++ {
		var p uvdiagram.Point
		if k%5 == 4 {
			p = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		} else {
			p = uvdiagram.Pt(min(max(q.X+jitter(), 0), 2000), min(max(q.Y+jitter(), 0), 2000))
		}
		move(p, "walk")
	}

	// Phase 2: churn in the session's OWN shard bumps its mutation
	// generation — the next move recomputes even inside the old safe
	// circle, exactly once. (Park well inside shard 0 first: churn in
	// another shard must NOT invalidate this session.)
	move(uvdiagram.Pt(500, 500), "park")
	churnID := db.NextID()
	if err := db.Insert(uvdiagram.NewObject(churnID, 505, 505, 10, nil)); err != nil {
		t.Fatal(err)
	}
	ids, recomputed, err := sess.Move(q)
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("move after insert trusted a stale safe circle")
	}
	model.moves++
	model.recomputes++
	model.check(t, sess, "post-insert")
	answersMatch(t, db, ids, q, "post-insert")

	// Revalidate is the churn-notification path: it recomputes without
	// counting a move, and is free when the index is untouched.
	if err := db.Delete(churnID); err != nil {
		t.Fatal(err)
	}
	if _, recomputed, err := sess.Revalidate(); err != nil || !recomputed {
		t.Fatalf("revalidate after delete: recomputed=%v err=%v", recomputed, err)
	}
	model.recomputes++
	model.check(t, sess, "revalidate-churn")
	if _, recomputed, err := sess.Revalidate(); err != nil || recomputed {
		t.Fatalf("revalidate on an untouched index: recomputed=%v err=%v", recomputed, err)
	}
	model.check(t, sess, "revalidate-idle")

	// Phase 3: Compact swaps every epoch. The session re-opens
	// transparently, one recompute for the swap.
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	move(q, "post-compact")

	// Phase 4a: in-session failure. Park in the corner shard, then move
	// out of the domain: the point clamps to the SAME shard, the core
	// recompute rejects it, and nothing is charged.
	move(uvdiagram.Pt(3, 3), "to-corner")
	before := sess.Stats()
	if _, _, err := sess.Move(uvdiagram.Pt(-5, -5)); err == nil {
		t.Fatal("out-of-domain move succeeded")
	}
	model.check(t, sess, "failed-in-session")
	if sess.Stats() != before {
		t.Fatalf("failed in-session move changed counters: %+v vs %+v", sess.Stats(), before)
	}

	// Phase 4b: failed RE-OPEN. Compact bumps the epoch generation, so
	// the same out-of-domain move now goes down the re-open path and
	// NewContinuousPNN fails — the session, its binding, and its
	// counters must all survive untouched.
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Move(uvdiagram.Pt(-5, -5)); err == nil {
		t.Fatal("out-of-domain re-open succeeded")
	}
	model.check(t, sess, "failed-re-open")
	if sess.Stats() != before {
		t.Fatalf("failed re-open changed counters: %+v vs %+v", sess.Stats(), before)
	}

	// Recovery: the next valid move charges exactly one move and one
	// recompute and answers exactly like a fresh PNN.
	move(uvdiagram.Pt(7, 9), "recovery")
}

// TestAdvanceAllMatchesSequential drives two identical session fleets
// through the same trajectories — one through the bulk shard-grouped
// AdvanceAll path, one through sequential Move calls — across churn and
// a Compact, and asserts bitwise-identical answers, identical recompute
// flags, and identical counters at every round.
func TestAdvanceAllMatchesSequential(t *testing.T) {
	cfg := datagen.Config{N: 300, Side: 2000, Diameter: 40, Seed: 99}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	const fleet = 40
	rng := rand.New(rand.NewSource(3))
	bulk := make([]*uvdiagram.ContinuousPNN, fleet)
	seq := make([]*uvdiagram.ContinuousPNN, fleet)
	qs := make([]uvdiagram.Point, fleet)
	for i := range bulk {
		qs[i] = uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		if bulk[i], err = db.NewContinuousPNN(qs[i]); err != nil {
			t.Fatal(err)
		}
		if seq[i], err = db.NewContinuousPNN(qs[i]); err != nil {
			t.Fatal(err)
		}
	}

	compare := func(round string, recomputed []bool, errs []error, wantRec []bool, wantErr []error) {
		t.Helper()
		for i := range bulk {
			if (errs[i] == nil) != (wantErr[i] == nil) {
				t.Fatalf("%s[%d]: bulk err %v, sequential err %v", round, i, errs[i], wantErr[i])
			}
			if recomputed[i] != wantRec[i] {
				t.Fatalf("%s[%d]: bulk recomputed=%v, sequential=%v", round, i, recomputed[i], wantRec[i])
			}
			if bulk[i].Stats() != seq[i].Stats() {
				t.Fatalf("%s[%d]: bulk stats %+v, sequential %+v", round, i, bulk[i].Stats(), seq[i].Stats())
			}
			a, b := bulk[i].AnswerIDs(), seq[i].AnswerIDs()
			if len(a) != len(b) {
				t.Fatalf("%s[%d]: bulk answers %v, sequential %v", round, i, a, b)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("%s[%d]: bulk answers %v, sequential %v", round, i, a, b)
				}
			}
		}
	}

	step := func(round string, mutate func() error) {
		t.Helper()
		if mutate != nil {
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range qs {
			qs[i] = uvdiagram.Pt(
				min(max(qs[i].X+(rng.Float64()*2-1)*50, 0), 2000),
				min(max(qs[i].Y+(rng.Float64()*2-1)*50, 0), 2000))
		}
		if round == "bad-point" {
			qs[7] = uvdiagram.Pt(-100, -100) // out of domain: errs[7] only
		}
		recomputed, errs := db.AdvanceAll(bulk, qs, nil)
		wantRec := make([]bool, fleet)
		wantErr := make([]error, fleet)
		for i := range seq {
			_, wantRec[i], wantErr[i] = seq[i].Move(qs[i])
		}
		compare(round, recomputed, errs, wantRec, wantErr)
	}

	step("plain", nil)
	step("churn", func() error {
		return db.Insert(uvdiagram.NewObject(db.NextID(), 500, 500, 10, nil))
	})
	step("compact", func() error { return db.Compact(context.Background()) })
	step("bad-point", nil)
	step("recover", nil)

	// nil positions = bulk revalidation; mirror with Revalidate.
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	recomputed, errs := db.AdvanceAll(bulk, nil, nil)
	wantRec := make([]bool, fleet)
	wantErr := make([]error, fleet)
	for i := range seq {
		_, wantRec[i], wantErr[i] = seq[i].Revalidate()
	}
	compare("revalidate", recomputed, errs, wantRec, wantErr)
}
