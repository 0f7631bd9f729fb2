package uvdiagram

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"uvdiagram/internal/datagen"
)

// crSizes returns Σ|cr| and the p99 |cr| over db's live objects.
func crSizes(db *DB) (sum, p99 int) {
	var sizes []int
	for id := range int32(db.cr.Len()) {
		if db.Alive(id) {
			sizes = append(sizes, len(db.cr.Of(id)))
			sum += sizes[len(sizes)-1]
		}
	}
	slices.Sort(sizes)
	return sum, sizes[(len(sizes)*99-1)/100]
}

// TestChurnRegistryStaysLean: under steady churn the registry tracks the
// live population instead of every id a cr-set ever held. Three rounds
// of n/2 (delete a random live object, insert a fresh one) pairs run on
// one goroutine. After each round Σ|cr| stays within 1.2× and the p99
// |cr| within 2× of a fresh build of the survivors, answers equal that
// build's bit for bit, and the reverse map is the inverse of the sets.
// Dependents per delete, a count and not a timer, stay within 1.3× from
// round 1 to round 3: a bloated registry makes every later delete
// dearer. Last, the churned registry is saved and reopened mmap-backed,
// so it must pass the registry decoder's checks and serve the same
// answers.
func TestChurnRegistryStaysLean(t *testing.T) {
	if testing.Short() || RaceEnabled {
		t.Skip("three churn rounds at n = 2 000 (run without -short and -race)")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testChurnRegistry(t, shards) })
	}
}

func testChurnRegistry(t *testing.T, shards int) {
	const n = 2000
	cfg := datagen.Config{N: n, Seed: 20100301}
	opts := &Options{Shards: shards, Workers: 1}
	all := datagen.Uniform(cfg)
	db, err := Build(all, cfg.Domain(), opts)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := datagen.Uniform(datagen.Config{N: 3 * n / 2, Seed: 7})
	rng := rand.New(rand.NewSource(41))
	qs := queryGrid(rng, datagen.DefaultSide, 16)
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	var dead []int32
	var perDelete [3]float64
	for round := range 3 {
		before := db.MutationStats()
		for range n / 2 {
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			dead = append(dead, id)
			o := arrivals[len(all)-n]
			o.ID = db.NextID()
			if err := db.Insert(o); err != nil {
				t.Fatal(err)
			}
			all = append(all, o)
			live = append(live, o.ID)
		}
		after := db.MutationStats()
		perDelete[round] = float64(after.Dependents-before.Dependents) / float64(after.Deletes-before.Deletes)

		label := fmt.Sprintf("round %d", round+1)
		ref := survivorReference(t, all, dead, cfg.Domain(), opts)
		sum, p99 := crSizes(db)
		refSum, refP99 := crSizes(ref)
		t.Logf("%s: Σ|cr| %d (fresh %d), p99 %d (fresh %d), %.1f dependents per delete", label, sum, refSum, p99, refP99, perDelete[round])
		if float64(sum) > 1.2*float64(refSum) || p99 > 2*refP99 {
			t.Errorf("%s: Σ|cr| %d and p99 %d, want ≤ 1.2× %d and ≤ 2× %d (a fresh build of the survivors)", label, sum, p99, refSum, refP99)
		}
		assertDBsEquivalent(t, label, db, ref, qs)
		assertInverseRegistry(t, label, db)
	}
	if perDelete[2] > 1.3*perDelete[0] {
		t.Errorf("dependents per delete grew %.1f → %.1f from round 1 to round 3, want ≤ 1.3×", perDelete[0], perDelete[2])
	}

	path := filepath.Join(t.TempDir(), "churned.uv6")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, &Options{Pager: "mmap"})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	assertCarvedRegistry(t, "open", opened, db, true)
	assertServingEquivalent(t, "open", opened, db, qs)
}
