package core

import (
	"cmp"
	"math"
	"slices"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Seed-selection defaults from Section IV-B / VI: a 300-NN query feeds
// 8 sectors of 45° each.
const (
	DefaultSeedK       = 300
	DefaultSeedSectors = 8
)

// selectSeeds implements initPossibleRegion's seed choice (Section
// IV-B), filling sc.seeds and reusing sc's iterator and sector buffers:
// the domain is divided into ks sectors centered at ci and the closest
// object of each sector becomes a seed, considering the k nearest
// objects by minimum distance. Fewer than ks seeds may be
// returned when sectors are empty — the initial region is then merely
// larger (the paper notes this does not affect the later steps).
//
// The k nearest are the first k+1 objects (Oi itself among them) in
// (distmin, id) order. Here they are pulled lazily from a best-first
// incremental-NN browse of the R-tree, and each run of equal distmin
// the browse pops is taken in id order, so an exact tie resolves the
// same way whatever the tree's shape. The pull stops as soon as every
// sector is seeded, or once the browse's distmin exceeds the domain
// reach of every sector still open (see openReach). On the n = 8 000
// benchmark population the sector loop alone stops after 22 neighbors
// at the median and 44 at p90, but the 7.3 % of objects that never fill
// 8 sectors (all within 400 of a domain edge) consume all k+1 = 301;
// with the reach stop the median is 21, p90 35 and 0.5 % reach 301.
// Build derives most objects from a neighbor list shared by their
// helper-R-tree leaf instead (seedsFromList settles 98.2 % of that
// population); this browse serves the single-object paths and the
// members the list cannot settle.
//
// Objects whose uncertainty region overlaps Oi's are skipped: they
// contribute no UV-edge (Section III-C), so taking one as a sector's
// seed would leave that sector unbounded and ruin the pruning bound of
// Lemma 2. At the paper's densest settings (40k objects of diameter 40
// in a 10k×10k domain) most objects overlap one or two neighbors, so
// this filter is what keeps the pruning ratio at the reported ~90%.
func (sc *DeriveScratch) selectSeeds(tree *rtree.Tree, oi uncertain.Object, domain geom.Rect, k, ks int) {
	sc.startSeeds(k, ks)
	sc.it.Reset(tree, oi.Region.C)
	nb, ok := sc.it.Next()
	for ok && nb.DistMin <= sc.openReach(oi.Region.C, domain) {
		// One run of equal keys, taken in id order.
		key := nb.DistMin
		run := sc.run[:0]
		for ok && nb.DistMin == key {
			run = append(run, nb.Item)
			nb, ok = sc.it.Next()
		}
		sc.run = run
		if len(run) > 1 {
			slices.SortFunc(run, func(a, b rtree.Item) int { return cmp.Compare(a.ID, b.ID) })
		}
		for _, it := range run {
			if sc.offerSeed(oi, it) {
				return
			}
		}
	}
}

// seedGroup is the neighbor list one helper-R-tree leaf shares: every
// item whose distmin from the group's center is at most cover. With ρ
// the group's seed radius and cover = ρ + the farthest member's offset
// from the center, the list holds, for every member, every item of
// distmin ≤ ρ from that member, and every item whose center lies within
// cover − offset of it.
type seedGroup struct {
	center geom.Point
	rho    float64
	cover  float64
	items  []rtree.Item
}

// groupSeedNeighbors sizes a group's seed radius ρ: the disk of radius
// ρ holds this many objects at the group's own density (its members per
// unit of their bounding box). Most sector loops stop within it: 22
// pulls at the median, 44 at p90.
const groupSeedNeighbors = 64

// collect fills g's list for the given members and reports whether
// there is one: a lone member, or members all at one point, have no
// density to size ρ by and browse on their own.
func (g *seedGroup) collect(tree *rtree.Tree, objs []uncertain.Object, members []int32) bool {
	if len(members) < 2 {
		return false
	}
	c0 := objs[members[0]].Region.C
	box := geom.Rect{Min: c0, Max: c0}
	for _, id := range members[1:] {
		c := objs[id].Region.C
		box = box.Union(geom.Rect{Min: c, Max: c})
	}
	area := box.Area()
	if area == 0 { // collinear members: a square on the longer side
		side := max(box.W(), box.H())
		area = side * side
	}
	if area == 0 {
		return false
	}
	g.center = box.Center()
	spread := 0.0
	for _, id := range members {
		spread = max(spread, objs[id].Region.C.Dist(g.center))
	}
	g.rho = math.Sqrt(groupSeedNeighbors * area / float64(len(members)) / math.Pi)
	g.cover = g.rho + spread
	g.items = g.items[:0]
	// The slack absorbs the rounding of the triangle inequalities the
	// list's guarantees rest on.
	tree.NearFunc(g.center, g.cover*(1+1e-9), func(it rtree.Item) { g.items = append(g.items, it) })
	return true
}

// keyedRef is one list entry within a member's seed radius: its seed
// key, its id and its position in the group's list.
type keyedRef struct {
	key float64
	id  int32
	ref int32
}

// seedsFromList runs selectSeeds' sector loop for oi over the group's
// shared list instead of a browse, and reports whether the seeds are
// final. It also leaves in sc.dist the distance from oi's center to
// every list item's, for iPruneInto.
//
// The entries whose distmin from oi (the browse's key, computed by the
// same expression) is at most ρ are the prefix of the population in
// (distmin, id) order, so the loop over them, sorted, consumes exactly
// what the browse would. The seeds are final when the loop stops inside
// that prefix, or when every sector still open has a domain reach of at
// most ρ: no object beyond the prefix can lie in one of them.
func (sc *DeriveScratch) seedsFromList(g *seedGroup, oi uncertain.Object, domain geom.Rect, k, ks int) bool {
	c := oi.Region.C
	dist := sc.dist[:0]
	keyed := sc.keyed[:0]
	for j, it := range g.items {
		d := c.Dist(it.MBC.C)
		dist = append(dist, d)
		if key := max(0, d-it.MBC.R); key <= g.rho {
			keyed = append(keyed, keyedRef{key: key, id: it.ID, ref: int32(j)})
		}
	}
	sc.dist, sc.keyed = dist, keyed
	// The loop usually stops after a third of the entries, so they are
	// popped off a heap rather than sorted.
	for i := len(keyed)/2 - 1; i >= 0; i-- {
		siftKeyed(keyed, i)
	}
	sc.startSeeds(k, ks)
	for n := len(keyed) - 1; n >= 0; n-- {
		e := keyed[0]
		keyed[0] = keyed[n]
		siftKeyed(keyed[:n], 0)
		if sc.offerSeed(oi, g.items[e.ref]) {
			return true
		}
	}
	return sc.openReach(c, domain) <= g.rho
}

// siftKeyed restores the (key, id) min-heap order of h below i.
func siftKeyed(h []keyedRef, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (a keyedRef) before(b keyedRef) bool { return a.key < b.key || a.key == b.key && a.id < b.id }

// startSeeds resets the sector loop for one object; k and ks ≤ 0 mean
// the paper's defaults.
func (sc *DeriveScratch) startSeeds(k, ks int) {
	if k <= 0 {
		k = DefaultSeedK
	}
	if ks <= 0 {
		ks = DefaultSeedSectors
	}
	sc.seedK, sc.pulled = k, 0
	sc.seeds = sc.seeds[:0]
	if cap(sc.taken) < ks {
		sc.taken = make([]bool, ks)
	} else {
		sc.taken = sc.taken[:ks]
		clear(sc.taken)
	}
	sc.reach = sc.reach[:0]
}

// offerSeed feeds the sector loop the next neighbor in (distmin, id)
// order and reports whether the loop is done: every sector seeded, or
// k+1 neighbors consumed (k+1 because the query point is Oi's own
// center and Oi itself is excluded).
func (sc *DeriveScratch) offerSeed(oi uncertain.Object, it rtree.Item) bool {
	sc.pulled++
	if it.ID != oi.ID && !oi.Region.Overlaps(it.MBC) {
		ks := len(sc.taken)
		sector := sectorOf(it.MBC.C.Sub(oi.Region.C), ks)
		if !sc.taken[sector] {
			sc.taken[sector] = true
			sc.seeds = append(sc.seeds, it.ID)
			if len(sc.seeds) == ks {
				return true
			}
		}
	}
	return sc.pulled == sc.seedK+1
}

// sectorOf returns which of ks equal sectors, counterclockwise from the
// +x axis, the direction dir falls in.
func sectorOf(dir geom.Point, ks int) int {
	return min(int(geom.NormalizeAngle(dir.Angle())/(2*math.Pi)*float64(ks)), ks-1)
}

// openReach returns the largest domain reach among the sectors the loop
// has not seeded, 0 when none is open. A sector's domain reach bounds
// the distance from c to any point of the domain inside the sector's
// wedge, so an object whose distmin from c exceeds it cannot lie in it
// — every live center lies in the domain. The reaches are computed on
// first use per object (startSeeds clears them).
func (sc *DeriveScratch) openReach(c geom.Point, domain geom.Rect) float64 {
	if len(sc.reach) == 0 {
		sc.reach = sectorReach(c, domain, len(sc.taken), sc.reach)
	}
	r := 0.0
	for s, taken := range sc.taken {
		if !taken {
			r = max(r, sc.reach[s])
		}
	}
	return r
}

// sectorReach appends, for each of ks sectors around c (c inside the
// domain), the farthest distance from c of any domain point in the
// sector's wedge, with a relative hair of slack for the rounding of
// the angles that assign objects to sectors. The intersection of the
// domain and a wedge is a polygon whose farthest vertex from c is one of
// the wedge's two ray exits or a domain corner inside the wedge.
func sectorReach(c geom.Point, domain geom.Rect, ks int, reach []float64) []float64 {
	exit := func(s int) float64 { return domain.RayExit(c, geom.PolarUnit(2*math.Pi*float64(s)/float64(ks))) }
	first := exit(0)
	prev := first
	for s := 0; s < ks; s++ {
		next := first
		if s+1 < ks {
			next = exit(s + 1)
		}
		reach = append(reach, max(prev, next))
		prev = next
	}
	for _, q := range domain.Corners() {
		d := q.Sub(c)
		s := sectorOf(d, ks)
		reach[s] = max(reach[s], d.Norm())
	}
	for s := range reach {
		reach[s] *= 1 + 1e-9
	}
	return reach
}
