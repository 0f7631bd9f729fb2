package rtree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"uvdiagram/internal/epoch"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// memoKeys returns n distinct leaf-node keys (the memo only compares
// node identity).
func memoKeys(n int) []*node {
	keys := make([]*node, n)
	for i := range keys {
		keys[i] = &node{count: i}
	}
	return keys
}

// item1 is a one-item leaf whose id marks which put stored it.
func item1(id int) []Item { return []Item{{ID: int32(id)}} }

func TestMemoGetPut(t *testing.T) {
	m := newLeafMemo(2)
	k := memoKeys(3)
	if _, ok := m.get(k[0]); ok {
		t.Fatal("hit on empty memo")
	}
	m.put(k[0], item1(1))
	m.put(k[1], item1(2))
	if v, ok := m.get(k[0]); !ok || v[0].ID != 1 {
		t.Fatalf("k0 = %v, %v", v, ok)
	}
	// k0 was just used; inserting k2 must evict k1.
	m.put(k[2], item1(3))
	if _, ok := m.get(k[1]); ok {
		t.Fatal("LRU entry not evicted")
	}
	if v, ok := m.get(k[0]); !ok || v[0].ID != 1 {
		t.Fatalf("recently used entry evicted: %v, %v", v, ok)
	}
	if len(m.entries) != 2 {
		t.Fatalf("len = %d", len(m.entries))
	}
	if m.hits != 2 || m.misses != 2 || m.evictions != 1 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 2/2/1", m.hits, m.misses, m.evictions)
	}
}

func TestMemoPutOverwrites(t *testing.T) {
	m := newLeafMemo(2)
	k := memoKeys(1)
	m.put(k[0], item1(1))
	m.put(k[0], item1(9))
	if v, _ := m.get(k[0]); v[0].ID != 9 {
		t.Fatalf("k0 = %v after overwrite", v)
	}
	if len(m.entries) != 1 {
		t.Fatalf("len = %d", len(m.entries))
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	m := newLeafMemo(8)
	keys := memoKeys(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w*31 + i) % 16
				if v, ok := m.get(keys[k]); ok && v[0].ID != int32(k*10) {
					t.Errorf("key %d = %d", k, v[0].ID)
					return
				}
				m.put(keys[k], item1(k*10))
			}
		}(w)
	}
	wg.Wait()
}

func TestMemoEvictionOrderUnderChurn(t *testing.T) {
	m := newLeafMemo(3)
	keys := memoKeys(10)
	for i, k := range keys {
		m.put(k, item1(i))
	}
	if len(m.entries) != 3 {
		t.Fatalf("len = %d", len(m.entries))
	}
	for i := 7; i < 10; i++ {
		if v, ok := m.get(keys[i]); !ok || v[0].ID != int32(i) {
			t.Fatalf("k%d = %v, %v", i, v, ok)
		}
	}
}

// bruteKNNCandidates is KNNCandidates by a scan of the live items: the
// k-th smallest distmax and the ids of every item whose distmin does
// not exceed it, ascending.
func bruteKNNCandidates(live map[int32]Item, q geom.Point, k int) ([]int32, float64) {
	maxes := make([]float64, 0, len(live))
	for _, it := range live {
		maxes = append(maxes, q.Dist(it.MBC.C)+it.MBC.R)
	}
	sort.Float64s(maxes)
	bound := maxes[k-1]
	var ids []int32
	for id, it := range live {
		if math.Max(0, q.Dist(it.MBC.C)-it.MBC.R) <= bound {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, bound
}

// memoChurn drives a seeded Insert/Delete sequence over a tree with an
// epoch domain attached and, after every step, checks memoised
// KNNCandidates against a brute-force scan of the live items — a stale
// memo entry would surface as a deleted id, a missing inserted id or a
// wrong bound. The population spans more leaves than leafMemoCap, so
// entries are evicted and re-read along the way. With readers > 0,
// that many goroutines query concurrently with the writer (filling the
// memo from older snapshots and reordering its LRU list) and check
// what a torn or stale leaf would break without knowing the writer's
// step: no duplicate ids, and the returned bound is exactly the k-th
// smallest distmax among the returned candidates.
func memoChurn(t *testing.T, readers int) {
	const side = 1000.0
	rng := rand.New(rand.NewSource(23))
	dom := epoch.NewDomain()
	items := randomItems(rng, 1200, side)
	tr := BulkLoad(items, 4, pager.New(0))
	tr.SetReclaimDomain(dom)
	live := make(map[int32]Item, len(items))
	ids := make([]int32, 0, len(items)) // live ids, for O(1) random victims
	for _, it := range items {
		live[it.ID] = it
		ids = append(ids, it.ID)
	}
	next := int32(len(items))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
				k := 1 + rng.Intn(8)
				tk := dom.Pin()
				cands, bound := tr.KNNCandidates(q, k)
				dom.Unpin(tk)
				seen := make(map[int32]bool, len(cands))
				maxes := make([]float64, len(cands))
				for i, it := range cands {
					if seen[it.ID] {
						t.Errorf("reader: duplicate candidate %d", it.ID)
						return
					}
					seen[it.ID] = true
					maxes[i] = q.Dist(it.MBC.C) + it.MBC.R
				}
				sort.Float64s(maxes)
				if len(maxes) < k || maxes[k-1] != bound {
					t.Errorf("reader: bound %v is not the %d-th smallest distmax of its %d candidates", bound, k, len(cands))
					return
				}
			}
		}(int64(100 + r))
	}

	for step := 0; step < 600; step++ {
		if rng.Intn(2) == 0 || len(ids) < 1000 {
			it := Item{ID: next, Ptr: uint64(next),
				MBC: geom.Circle{C: geom.Pt(rng.Float64()*side, rng.Float64()*side), R: rng.Float64() * side / 100}}
			next++
			tr.Insert(it)
			live[it.ID] = it
			ids = append(ids, it.ID)
		} else {
			j := rng.Intn(len(ids))
			id := ids[j]
			if !tr.Delete(id, live[id].MBC) {
				t.Fatalf("step %d: Delete(%d) did not find the item", step, id)
			}
			delete(live, id)
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		for j := 0; j < 8; j++ {
			q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
			k := 1 + rng.Intn(8)
			tk := dom.Pin()
			cands, bound := tr.KNNCandidates(q, k)
			dom.Unpin(tk)
			want, wantBound := bruteKNNCandidates(live, q, k)
			if bound != wantBound {
				t.Fatalf("step %d: k=%d bound %v, want %v", step, k, bound, wantBound)
			}
			got := make([]int32, len(cands))
			for i, it := range cands {
				got[i] = it.ID
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if len(got) != len(want) {
				t.Fatalf("step %d: k=%d %d candidates, want %d", step, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: k=%d candidate ids %v, want %v", step, k, got, want)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	hits, misses, evictions := tr.MemoStats()
	if hits == 0 || misses == 0 || evictions == 0 {
		t.Fatalf("memo hits/misses/evictions = %d/%d/%d: the sequence did not exercise it", hits, misses, evictions)
	}
	if n := len(tr.memo.entries); n > leafMemoCap {
		t.Fatalf("memo holds %d leaves, cap %d", n, leafMemoCap)
	}
}

// TestMemoNeverServesStaleLeaf: see memoChurn.
func TestMemoNeverServesStaleLeaf(t *testing.T) { memoChurn(t, 0) }

// TestMemoNeverServesStaleLeafConcurrentReaders is the same sequence
// with 4 reader goroutines sharing the memo (run under -race).
func TestMemoNeverServesStaleLeafConcurrentReaders(t *testing.T) { memoChurn(t, 4) }

// TestOpenSnapshotHasMemo: a tree opened from a snapshot memoises like
// a built one.
func TestOpenSnapshotHasMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := BulkLoad(randomItems(rng, 200, 1000), 10, pager.New(0))
	manifest, pages := src.SnapshotManifest()
	pg := pager.New(0)
	for _, id := range pages {
		pg.Alloc(src.Pager().Read(id))
	}
	tr, err := OpenSnapshot(manifest, pg)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(500, 500)
	want, wantBound := src.KNNCandidates(q, 3)
	for round := 0; round < 2; round++ {
		got, bound := tr.KNNCandidates(q, 3)
		if bound != wantBound || len(got) != len(want) {
			t.Fatalf("round %d: %d candidates bound %v, want %d bound %v", round, len(got), bound, len(want), wantBound)
		}
	}
	if hits, _, _ := tr.MemoStats(); hits == 0 {
		t.Fatal("second query over an opened snapshot missed the memo")
	}
}
