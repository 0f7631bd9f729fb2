package agrid

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"uvdiagram/internal/pager"
	"uvdiagram/internal/wire"
)

// span is the cell of a one-dimensional test grid: [lo, hi) halved into
// two children.
type span struct{ lo, hi float64 }

func (s span) half(k int) span {
	mid := (s.lo + s.hi) / 2
	if k == 0 {
		return span{s.lo, mid}
	}
	return span{mid, s.hi}
}

// lineGrid indexes the intervals objs[id] over [0, 1000) with four ids
// per page.
func lineGrid(t testing.TB, objs []span) *Grid[span] {
	t.Helper()
	shape := Shape[span]{
		Fanout:   2,
		Child:    span.half,
		Overlaps: func(id int32, c span) bool { return objs[id].lo < c.hi && c.lo < objs[id].hi },
		PerPage:  4,
		EncodeLeaf: func(ids []int32) []byte {
			b := binary.LittleEndian.AppendUint16(nil, uint16(len(ids)))
			for _, id := range ids {
				b = binary.LittleEndian.AppendUint32(b, uint32(id))
			}
			return b
		},
	}
	g, err := New(span{0, 1000}, shape, Options{M: 200, SplitTheta: 1, MaxDepth: 12}, pager.New(64))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randSpans(n int, seed int64) []span {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]span, n)
	for i := range objs {
		lo := rng.Float64() * 990
		objs[i] = span{lo, lo + 1 + rng.Float64()*9}
	}
	return objs
}

func TestNewRejectsPageCapacity(t *testing.T) {
	for _, per := range []int{0, -1, pager.MaxLeafTuples + 1} {
		_, err := New(span{0, 1}, Shape[span]{Fanout: 2, PerPage: per}, Options{}, pager.New(64))
		if !errors.Is(err, ErrPageCapacity) {
			t.Fatalf("%d tuples per page: err = %v, want ErrPageCapacity", per, err)
		}
	}
}

// TestPublishedTreeHasNoFreshNodes runs write passes — inserts, then
// removals with reinserts — while readers walk every published tree.
// The race detector flags a pass that mutates a node after publishing
// it; Verify flags a published fresh mark or a leaf short of pages.
func TestPublishedTreeHasNoFreshNodes(t *testing.T) {
	objs := randSpans(300, 41)
	g := lineGrid(t, objs)
	p, root := g.Begin()
	p.Install(root)

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				g.Leaves(nil, func(_ span, _ int, leaf *Node) {
					for _, pid := range leaf.Pages() {
						_ = g.Pager().Read(pid)
					}
					_ = len(leaf.IDs())
				})
				_ = g.Stats()
			}
		}()
	}
	for id := int32(0); int(id) < len(objs); id++ {
		p, root := g.Begin()
		p.Install(p.Insert(id, root))
		if err := g.Verify(); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	for v := int32(0); v < 40; v += 3 {
		p, root := g.Begin()
		root = p.Remove(root, map[int32]bool{v: true, v + 1: true})
		p.Install(p.Insert(v+1, root))
		if err := g.Verify(); err != nil {
			t.Fatalf("remove %d: %v", v, err)
		}
	}
	done.Store(true)
	wg.Wait()
	if g.Stats().NonLeaf == 0 {
		t.Fatal("the grid never split")
	}
}

// TestBuildEqualsIncrementalGrowth: one pass over every object yields
// the tree one published pass per object grows, and the tree codec
// round-trips it.
func TestBuildEqualsIncrementalGrowth(t *testing.T) {
	objs := randSpans(200, 43)
	built := lineGrid(t, objs)
	p, root := built.Begin()
	for id := range objs {
		root = p.Insert(int32(id), root)
	}
	p.Install(root)

	grown := lineGrid(t, objs)
	for id := range objs {
		p, root := grown.Begin()
		p.Install(p.Insert(int32(id), root))
	}

	var a, b, c wire.Buffer
	built.PutTree(&a, nil)
	grown.PutTree(&b, nil)
	loaded := lineGrid(t, objs)
	if err := loaded.Load(wire.NewReader(a.Bytes()), len(objs), nil); err != nil {
		t.Fatal(err)
	}
	loaded.PutTree(&c, nil)
	if string(a.Bytes()) != string(b.Bytes()) || string(a.Bytes()) != string(c.Bytes()) {
		t.Fatal("one-pass, grown and reloaded trees differ")
	}
	if sa, sb, sc := built.Stats(), grown.Stats(), loaded.Stats(); sa.NonLeaf == 0 || sa != sb || sa != sc {
		t.Fatalf("stats: one-pass %+v, grown %+v, loaded %+v", sa, sb, sc)
	}
}
