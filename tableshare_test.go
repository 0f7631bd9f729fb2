package uvdiagram

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/datagen"
)

// TestTableShareDeterminism: a query integrates a pdf through its
// distance-CDF table only when enough live objects of the query's view
// hold it (64, prob's tableMinShare), so answers are a function of the
// live set and q. A database whose deletes carry one shape below that
// share, and whose inserts carry another above it, then back again,
// must answer PNN, TopK, Threshold, batch and RNN queries bitwise as a
// fresh build of its survivors, though its tables were built and used
// before.
func TestTableShareDeterminism(t *testing.T) {
	cfg := datagen.Config{N: 130, Side: 2000, Diameter: 40, Seed: 46}
	all := datagen.Uniform(cfg) // Gaussian: 70, uniform: 60
	for i := 70; i < len(all); i++ {
		all[i].PDF = UniformPDF()
	}
	spare := datagen.Uniform(datagen.Config{N: 16, Side: 2000, Diameter: 40, Seed: 47})
	db, err := Build(all, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(46))
	qs := queryGrid(rng, cfg.Side, 40)
	for i := 0; i < len(all); i += 3 {
		qs = append(qs, all[i].Region.C)
	}
	if _, err := db.BatchNN(qs, nil); err != nil { // both shapes tabled: build and use the tables
		t.Fatal(err)
	}
	insert := func(o Object, uniform bool) {
		t.Helper()
		o.ID = int32(len(all))
		if uniform {
			o.PDF = UniformPDF()
		}
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
		all = append(all, o)
	}
	var dead []int32
	remove := func(id int32) {
		t.Helper()
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, id)
	}
	// Gaussian 70 → 62, uniform 60 → 66.
	for id := int32(0); id < 16; id += 2 {
		remove(id)
	}
	for _, o := range spare[:6] {
		insert(o, true)
	}
	ref := survivorReference(t, all, dead, cfg.Domain(), nil)
	assertDBsEquivalent(t, "Gaussian below the share, uniform above", db, ref, qs)
	ref.Close()

	// Gaussian 62 → 72, uniform 66 → 60.
	for id := int32(70); id < 82; id += 2 {
		remove(id)
	}
	for _, o := range spare[6:] {
		insert(o, false)
	}
	ref = survivorReference(t, all, dead, cfg.Domain(), nil)
	defer ref.Close()
	assertDBsEquivalent(t, "Gaussian above the share again, uniform below", db, ref, qs)
}
