package uvdiagram_test

// Concurrent-mutation property test: randomized interleaved
// Insert/Delete traffic while reader goroutines hammer the full query
// surface and a background goroutine compacts. No query may ever
// error or block, and once the writers quiesce the
// incrementally maintained engine must answer PNN, TopK and order-k KNN
// bitwise identically to a database freshly built over the surviving
// population. Run with -race this doubles as the memory-model check for
// the COW publication protocol (store view before tree, leaf pages
// before tombstone).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

func TestConcurrentMutationEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/readers=%d", shards, workers), func(t *testing.T) {
				testConcurrentMutation(t, shards, workers)
			})
		}
	}
}

func testConcurrentMutation(t *testing.T, shards, readers int) {
	n, mutations := 260, 80
	if raceEnabled {
		mutations = 40
	}
	cfg := datagen.Config{N: n, Side: 2000, Diameter: 40, Seed: int64(41 + shards + readers)}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{Shards: shards, SeedK: 60})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var failed atomic.Value // first reader/compactor error
	fail := func(err error) {
		failed.CompareAndSwap(nil, err)
	}
	var wg sync.WaitGroup

	// Readers: the full query surface, continuously, lock-free.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
				if _, _, err := db.PNN(q); err != nil {
					fail(fmt.Errorf("reader %d: PNN: %w", w, err))
					return
				}
				if _, _, err := db.TopKPNN(q, 3); err != nil {
					fail(fmt.Errorf("reader %d: TopKPNN: %w", w, err))
					return
				}
				if _, err := db.PossibleKNN(q, 3); err != nil {
					fail(fmt.Errorf("reader %d: PossibleKNN: %w", w, err))
					return
				}
			}
		}(w)
	}

	// Off-thread Compact, racing the writer and the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Compact(context.Background()); err != nil {
				fail(fmt.Errorf("compact: %w", err))
				return
			}
		}
	}()

	// The one writer: randomized interleaved inserts and deletes.
	rng := rand.New(rand.NewSource(7))
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	for i := 0; i < mutations; i++ {
		if rng.Intn(2) == 0 && len(live) > n/2 {
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
		} else {
			o := uvdiagram.NewObject(db.NextID(), rng.Float64()*2000, rng.Float64()*2000, 20, nil)
			if err := db.Insert(o); err != nil {
				t.Fatal(err)
			}
			live = append(live, o.ID)
		}
	}
	close(stop)
	wg.Wait()
	if err, _ := failed.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Quiescent equivalence: rebuild fresh over the survivors (dense ids,
	// mapped back) and compare the query surface bitwise.
	survivors := make([]uvdiagram.Object, 0, db.Len())
	remap := map[int32]int32{}
	for id := int32(0); id < db.NextID(); id++ {
		if !db.Alive(id) {
			continue
		}
		o, err := db.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		remap[int32(len(survivors))] = id
		survivors = append(survivors, uvdiagram.Object{ID: int32(len(survivors)), Region: o.Region, PDF: o.PDF})
	}
	ref, err := uvdiagram.Build(survivors, cfg.Domain(), &uvdiagram.Options{SeedK: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range datagen.Queries(40, 2000, 17) {
		got, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i].ID = remap[want[i].ID]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("PNN(%v): incremental %v, fresh build %v", q, got, want)
		}
		gotK, _, err := db.TopKPNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantK, _, err := ref.TopKPNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantK {
			wantK[i].ID = remap[wantK[i].ID]
		}
		if fmt.Sprint(gotK) != fmt.Sprint(wantK) {
			t.Fatalf("TopKPNN(%v): incremental %v, fresh build %v", q, gotK, wantK)
		}
		gotN, err := db.PossibleKNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := ref.PossibleKNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		// remap is monotonic (survivors keep ascending ids), so a
		// sorted reference answer stays sorted after mapping.
		mapped := make([]int32, len(wantN))
		for i, id := range wantN {
			mapped[i] = remap[id]
		}
		if fmt.Sprint(gotN) != fmt.Sprint(mapped) {
			t.Fatalf("PossibleKNN(%v): incremental %v, fresh build %v", q, gotN, mapped)
		}
	}
}
