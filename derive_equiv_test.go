package uvdiagram_test

// Derivation-equivalence property tests at the engine level: the
// output-sensitive derivation hot path (lazy seeds, incremental radius
// profiles, scratch arenas, pooled query buffers) must leave every
// observable bit unchanged — cr-sets, PNN/TopK/KNN answers, and the
// post-Insert/Delete re-derivations. The naive reference engine is
// test-only code of internal/core (reference_oracle_test.go), where
// TestDeriveEquivalenceProperty and TestDeriveCRMatchesDeriveCRObjects
// hold the exported derivation (core.DeriveCRSets, core.DeriveCR)
// bitwise to it under the same strategies and parameters. This file
// covers the DB plumbing that threads scratches through Build, Insert,
// Delete and the batch engine, by comparing what the DB recorded with
// that exported derivation called directly — equal to the reference by
// transitivity.

import (
	"fmt"
	"slices"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
)

func crEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeriveEquivalenceDB: for IC, ICR and Basic strategies, a built
// DB's registry must record exactly the sets a direct sequential
// core.DeriveCRSets call derives (bitwise the reference's),
// and the full query surface (PNN, TopKPNN, PossibleKNN, batch PNN)
// must answer bitwise identically whether the scratch paths are used
// (batch) or not (single-point).
func TestDeriveEquivalenceDB(t *testing.T) {
	for _, strat := range []uvdiagram.Strategy{uvdiagram.IC, uvdiagram.ICR, uvdiagram.Basic} {
		t.Run(strat.String(), func(t *testing.T) {
			n := 250
			if strat == uvdiagram.Basic {
				n = 80
			}
			cfg := datagen.Config{N: n, Side: 2000, Diameter: 40, Seed: 5}
			objs := datagen.Uniform(cfg)
			db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{Strategy: strat, SeedK: 60})
			if err != nil {
				t.Fatal(err)
			}

			bopts := core.DefaultBuildOptions()
			bopts.Strategy = core.Strategy(strat)
			bopts.SeedK = 60
			bopts.Workers = 1
			want, _, err := core.DeriveCRSets(db.Store(), db.Domain(), db.RTree(), bopts)
			if err != nil {
				t.Fatal(err)
			}
			for id := int32(0); int(id) < len(want); id++ {
				if !crEqual(db.Index().CRObjects(id), want[id]) {
					t.Fatalf("object %d: registry %v, direct derivation %v", id, db.Index().CRObjects(id), want[id])
				}
			}

			// Single-point vs batch (scratch-pooled) answers, bitwise.
			qs := datagen.Queries(48, 2000, 11)
			batch, err := db.BatchNN(qs, &uvdiagram.BatchOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				single, _, err := db.PNN(q)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%v", single) != fmt.Sprintf("%v", batch[i]) {
					t.Fatalf("query %d: batch %v, single %v", i, batch[i], single)
				}
				if _, _, err := db.TopKPNN(q, 3); err != nil {
					t.Fatal(err)
				}
				if _, err := db.PossibleKNN(q, 3); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDeriveEquivalenceAfterMutations: Insert derives the new object's
// set with the DB's long-lived scratch, and Delete re-derives the
// dependents that lost a tight constraint with it. Each insert must
// record exactly what core.DeriveCR with a fresh scratch derives over
// the same population (bitwise the reference's); after the delete each
// live dependent must hold either its old set minus the victims (the
// triage's strip) or exactly that fresh derivation over the survivors;
// and the full query surface must match a freshly built database bit
// for bit afterwards.
func TestDeriveEquivalenceAfterMutations(t *testing.T) {
	cfg := datagen.Config{N: 220, Side: 2000, Diameter: 40, Seed: 23}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: 60, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	// A few inserts, then a few deletes (the delete path re-derives the
	// victims' dependents with the shared scratch, one per dependent).
	for i := 0; i < 8; i++ {
		o := uvdiagram.NewObject(db.NextID(), 123+float64(i)*211, 1777-float64(i)*177, 20, nil)
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
		// The inserted object's registry entry must equal a direct
		// derivation over the live population at insert time.
		want := core.DeriveCR(db.RTree(), o, db.Store().Dense(), db.Domain(), 60, 8, 256, core.NewDeriveScratch())
		if !crEqual(db.Index().CRObjects(o.ID), want) {
			t.Fatalf("insert %d: registry %v, direct derivation %v", o.ID, db.Index().CRObjects(o.ID), want)
		}
	}
	victims := []int32{3, 57, 120, 199}
	dead := map[int32]bool{}
	for _, v := range victims {
		dead[v] = true
	}
	// Each live dependent's set before the delete, minus the victims.
	stripped := map[int32][]int32{}
	for _, v := range victims {
		for _, d := range db.Index().Dependents(v) {
			if _, ok := stripped[d]; ok || dead[d] {
				continue
			}
			stripped[d] = slices.DeleteFunc(slices.Clone(db.Index().CRObjects(d)), func(m int32) bool { return dead[m] })
		}
	}
	if err := db.BatchDelete(victims); err != nil {
		t.Fatal(err)
	}
	// The output-sensitive delete re-derives only the dependents that
	// lost a TIGHT constraint, with Insert's derivation; the rest keep
	// their set minus the victims. So every dependent's set is one of
	// exactly those two.
	nStripped, nFresh := 0, 0
	for d, old := range stripped {
		set := db.Index().CRObjects(d)
		fresh := core.DeriveCR(db.RTree(), db.Store().Dense()[d], db.Store().Dense(), db.Domain(), 60, 8, 256, core.NewDeriveScratch())
		switch {
		case crEqual(set, old):
			nStripped++
		case crEqual(set, fresh):
			nFresh++
		default:
			t.Fatalf("dependent %d after delete: set %v is neither its old set minus the victims %v nor a fresh derivation %v", d, set, old, fresh)
		}
	}
	t.Logf("%d dependents: %d stripped, %d freshly derived", len(stripped), nStripped, nFresh)
	// Both halves of the output-sensitive split must have fired, or the
	// test exercises only one path.
	if ms := db.MutationStats(); ms.Rederived == 0 || ms.Skipped == 0 {
		t.Fatalf("mutation stats %+v: want both re-derived and skipped dependents", ms)
	}

	// Full query surface vs a fresh database built over the surviving
	// population with freshly derived constraint sets: answers must be
	// bitwise identical (the incremental engine keeps leaf lists
	// supersets, the dminmax filter removes the slack exactly).
	qs := datagen.Queries(64, 2000, 29)
	mutated := answersFingerprint(t, db, qs)

	survivors := make([]uvdiagram.Object, 0, db.Len())
	for id := int32(0); id < db.NextID(); id++ {
		if db.Alive(id) {
			o, err := db.Object(id)
			if err != nil {
				t.Fatal(err)
			}
			survivors = append(survivors, o)
		}
	}
	// Rebuild with dense ids, mapping answers back through the id map.
	remap := make(map[int32]int32, len(survivors))
	fresh := make([]uvdiagram.Object, len(survivors))
	for i, o := range survivors {
		remap[int32(i)] = o.ID
		fresh[i] = uvdiagram.Object{ID: int32(i), Region: o.Region, PDF: o.PDF}
	}
	ref, err := uvdiagram.Build(fresh, cfg.Domain(), &uvdiagram.Options{SeedK: 60})
	if err != nil {
		t.Fatal(err)
	}
	var refPrint string
	for _, q := range qs {
		answers, _, err := ref.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range answers {
			answers[i].ID = remap[answers[i].ID]
		}
		refPrint += fmt.Sprintf("%v;", answers)
	}
	if mutated != refPrint {
		t.Fatal("PNN answers diverged between the incrementally maintained DB and a fresh build")
	}
}

func answersFingerprint(t *testing.T, db *uvdiagram.DB, qs []uvdiagram.Point) string {
	t.Helper()
	out := ""
	for _, q := range qs {
		answers, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%v;", answers)
	}
	return out
}
