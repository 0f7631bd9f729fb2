package rtree

import (
	"container/list"
	"sync"
)

// leafMemoCap bounds the tree's decoded-leaf memo: 256 leaves of up to
// DefaultFanout 40-byte items is about 1 MB. It is a constant, not an
// option — measured (CHANGES.md, PR 23), the memo is worth 2.3× on
// batched k-NN retrieval and nothing evicts at the benchmark's sizes.
const leafMemoCap = 256

// leafMemo is the tree's own LRU memo of decoded leaf items, keyed by
// leaf node. The branch-and-prune k-NN traversal visits (and would
// re-decode) the same leaf pages for every nearby query point, in both
// of its phases; every KNNCandidates call, single or batched, reads
// through the memo. It is safe for concurrent readers. Correctness
// under mutation comes from copy-on-write: a mutation replaces every
// node it changes, so an item list keyed by node identity can never go
// stale — entries for replaced nodes simply stop being looked up and
// age out, while unchanged leaves stay warm across mutations.
type leafMemo struct {
	mu      sync.Mutex
	cap     int
	order   *list.List              // front = most recently used
	entries map[*node]*list.Element // element value is *memoEntry
	// hits/misses/evictions feed the server's cache.rtree_* gauges;
	// evictions is the sizing signal (a high rate means the working
	// set exceeds the memo).
	hits, misses, evictions int64
}

type memoEntry struct {
	key   *node
	items []Item
}

func newLeafMemo(capacity int) *leafMemo {
	return &leafMemo{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[*node]*list.Element, capacity),
	}
}

// get returns the items memoised under n, counting a hit or a miss.
func (m *leafMemo) get(n *node) ([]Item, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[n]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).items, true
}

// put stores items under n, evicting the least recently used entry
// when full.
func (m *leafMemo) put(n *node, items []Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[n]; ok {
		el.Value.(*memoEntry).items = items
		m.order.MoveToFront(el)
		return
	}
	if len(m.entries) >= m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
		m.evictions++
	}
	m.entries[n] = m.order.PushFront(&memoEntry{key: n, items: items})
}

// MemoStats returns the cumulative hit, miss and eviction counts of
// the tree's decoded-leaf memo.
func (t *Tree) MemoStats() (hits, misses, evictions int64) {
	m := t.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.evictions
}

// readLeafMemo is readLeaf through the tree's memo. A hit skips the
// page read (and its I/O accounting) and the decode; the returned
// slice is shared and must be treated as read-only.
func (t *Tree) readLeafMemo(n *node) []Item {
	if items, ok := t.memo.get(n); ok {
		return items
	}
	items := t.readLeaf(n)
	t.memo.put(n, items)
	return items
}
