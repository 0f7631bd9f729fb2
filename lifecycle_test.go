package uvdiagram_test

import (
	"context"
	"math/rand"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// TestFullLifecycle drives the whole public surface in one scenario:
// build, snapshot, reload, incremental insert, and every query type,
// checking cross-consistency along the way.
func TestFullLifecycle(t *testing.T) {
	cfg := datagen.Config{N: 50, Side: 2000, Diameter: 30, Seed: 4242}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot and reload.
	db2 := reopen(t, db)

	// Insert a new object into both.
	newObj := uvdiagram.NewObject(int32(db.Len()), 777, 888, 12, uvdiagram.GaussianPDF())
	if err := db.Insert(newObj); err != nil {
		t.Fatal(err)
	}
	if err := db2.Insert(newObj); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)

		// PNN agrees between the original and the reloaded database.
		a1, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := db2.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("q=%v: PNN diverges after reload+insert: %v vs %v", q, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("q=%v: PNN diverges after reload+insert: %v vs %v", q, a1, a2)
			}
		}

		// Top-1 is the maximum-probability PNN answer.
		top, _, err := db.TopKPNN(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) > 0 {
			best := a1[0]
			for _, a := range a1[1:] {
				if a.Prob > best.Prob {
					best = a
				}
			}
			if len(top) != 1 || top[0].Prob < best.Prob-1e-12 {
				t.Fatalf("q=%v: top-1 %v is not the max-probability answer %v", q, top, best)
			}
		}

		// Possible-1-NN contains every PNN answer (the PNN set is
		// exactly the possible-NN set).
		knn, err := db.PossibleKNN(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		inKNN := make(map[int32]bool, len(knn))
		for _, id := range knn {
			inKNN[id] = true
		}
		for _, a := range a1 {
			if !inKNN[a.ID] {
				t.Fatalf("q=%v: PNN answer %d missing from possible-1-NN %v", q, a.ID, knn)
			}
		}

		// The answer with non-zero probability at q must have q inside
		// its approximate cell extent (leaf-region superset).
		if len(a1) > 0 {
			regions := db.CellRegions(a1[0].ID)
			found := false
			for _, r := range regions {
				if r.Contains(q) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("q=%v: answer %d's cell regions do not cover q", q, a1[0].ID)
			}
		}
	}

	// The inserted object is queryable: a point at its center must see
	// it as a possible NN.
	ans, _, err := db.PNN(uvdiagram.Pt(777, 888))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range ans {
		if a.ID == newObj.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted object invisible at its own center: %v", ans)
	}

	// Compact clears insert slack without changing answers.
	before, _, err := db.PNN(uvdiagram.Pt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _, err := db.PNN(uvdiagram.Pt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("rebuild changed answers: %v vs %v", before, after)
	}
	for i := range before {
		if before[i].ID != after[i].ID {
			t.Fatalf("rebuild changed answers: %v vs %v", before, after)
		}
	}

	// Delete the inserted object again: it must vanish from queries and
	// the database must agree with its snapshot twin after the same
	// delete.
	if err := db.Delete(newObj.ID); err != nil {
		t.Fatal(err)
	}
	if err := db2.Delete(newObj.ID); err != nil {
		t.Fatal(err)
	}
	ans, _, err = db.PNN(uvdiagram.Pt(777, 888))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ans {
		if a.ID == newObj.ID {
			t.Fatalf("deleted object still visible at its center: %v", ans)
		}
	}
	a2, _, err := db2.PNN(uvdiagram.Pt(777, 888))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != len(a2) {
		t.Fatalf("PNN diverges after delete: %v vs %v", ans, a2)
	}

	// A database with tombstones round-trips through a snapshot.
	db3 := reopen(t, db)
	if db3.Len() != db.Len() || db3.Alive(newObj.ID) {
		t.Fatalf("tombstones lost in round-trip: live %d vs %d, alive(%d)=%v",
			db3.Len(), db.Len(), newObj.ID, db3.Alive(newObj.ID))
	}
	b3, _, err := db3.PNN(uvdiagram.Pt(777, 888))
	if err != nil {
		t.Fatal(err)
	}
	if len(b3) != len(ans) {
		t.Fatalf("PNN diverges after reload with tombstones: %v vs %v", b3, ans)
	}
	for i := range ans {
		if b3[i] != ans[i] {
			t.Fatalf("PNN diverges after reload with tombstones: %v vs %v", b3, ans)
		}
	}
}

// TestShardedLifecycle: a sharded database round-trips through a
// snapshot — layout, tombstones and every shard's sub-grid — answering
// bitwise like the original AND like the unsharded engine over the same
// population; and the version-3 / version-2 streams an earlier release
// saved of the same two databases still open to the same answers.
func TestShardedLifecycle(t *testing.T) {
	// Both engines are churned identically, so tombstones and insert
	// slack are in every file.
	db := lifecycleDB(t, &uvdiagram.Options{Shards: 4})
	flat := lifecycleDB(t, nil)

	re := reopen(t, db)
	// Options.Shards on Open must NOT override the file's layout.
	db2, err := uvdiagram.Open(legacyPath("v3-equal4.uvdb"), &uvdiagram.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*uvdiagram.DB{"snapshot": re, "v3 stream": db2} {
		if d.Shards() != 4 {
			t.Fatalf("%s: reloaded shard count %d, want 4", name, d.Shards())
		}
		gx, gy := d.ShardGrid()
		wgx, wgy := db.ShardGrid()
		if gx != wgx || gy != wgy {
			t.Fatalf("%s: reloaded grid %d×%d, want %d×%d", name, gx, gy, wgx, wgy)
		}
		if d.Len() != db.Len() || d.Alive(7) {
			t.Fatalf("%s: tombstones lost: live %d vs %d, alive(7)=%v", name, d.Len(), db.Len(), d.Alive(7))
		}
	}
	assertEquivalent(t, db, re, 17)

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		want, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := db2.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := flat.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		// The sharded and unsharded in-memory engines and the legacy
		// stream agree bitwise: the stream's bars rebuild each pdf bit
		// for bit.
		if len(got) != len(want) || len(got) != len(ref) {
			t.Fatalf("q=%v: PNN diverges: reload %v, original %v, unsharded %v", q, got, want, ref)
		}
		for i := range got {
			if want[i] != ref[i] {
				t.Fatalf("q=%v: sharded %v diverges from unsharded %v", q, want, ref)
			}
			if got[i] != want[i] {
				t.Fatalf("q=%v: reload answers %v, original %v", q, got, want)
			}
		}
	}

	// The reloaded sharded engine keeps mutating correctly.
	if err := db2.Delete(12); err != nil {
		t.Fatal(err)
	}
	if db2.Alive(12) {
		t.Fatal("delete after sharded reload did not stick")
	}

	// The unsharded twin's version-2 stream opens single-shard with the
	// same answers, and the sharded stream opened above under explicit
	// Options also opens under nil.
	flat2, err := uvdiagram.Open(legacyPath("v2-single.uvdb"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if flat2.Shards() != 1 {
		t.Fatalf("unsharded reload has %d shards", flat2.Shards())
	}
	assertEquivalent(t, flat, flat2, 17)
	if _, err := uvdiagram.Open(legacyPath("v3-equal4.uvdb"), nil); err != nil {
		t.Fatalf("sharded stream under nil opts: %v", err)
	}
}

// TestContinuousPNNSurvivesDeleteAndCompact: a moving-query session
// must never serve a stale answer set across a delete (mutation
// generation bump) or a Compact (epoch swap).
func TestContinuousPNNSurvivesDeleteAndCompact(t *testing.T) {
	cfg := datagen.Config{N: 40, Side: 2000, Diameter: 50, Seed: 2024}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Open the session at some object's center so that object is in the
	// answer set.
	victim := int32(6)
	q := objs[victim].Region.C
	sess, err := db.NewContinuousPNN(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range sess.AnswerIDs() {
		found = found || id == victim
	}
	if !found {
		t.Fatalf("victim %d not in the session's answer set at its own center", victim)
	}

	// Delete the victim, then move WITHIN the old safe circle: the
	// session must recompute (generation bump) and drop the victim.
	if err := db.Delete(victim); err != nil {
		t.Fatal(err)
	}
	tiny := uvdiagram.Pt(q.X+1e-9, q.Y)
	ids, recomputed, err := sess.Move(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("session trusted a safe circle computed before the delete")
	}
	for _, id := range ids {
		if id == victim {
			t.Fatalf("session still answers the deleted object: %v", ids)
		}
	}
	want, _, err := db.PNN(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("session answers %v, PNN answers %v", ids, want)
	}

	// Compact swaps the epoch; the session must re-open transparently
	// and stay consistent with direct queries.
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids, recomputed, err = sess.Move(uvdiagram.Pt(q.X+2e-9, q.Y))
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("session did not notice the epoch swap")
	}
	want, _, err = db.PNN(uvdiagram.Pt(q.X+2e-9, q.Y))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("post-compact session answers %v, PNN answers %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i].ID {
			t.Fatalf("post-compact session answers %v, PNN answers %v", ids, want)
		}
	}
	if sess.Stats().Moves < 2 {
		t.Fatalf("session counters lost across epoch swap: %+v", sess.Stats())
	}
}
