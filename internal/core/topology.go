package core

import (
	"math"
	"slices"
	"sort"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// Topology is the incremental topology registry that rides alongside
// CRState: for objects the mutation path has had to look at, it caches
// which of their cr-set members are TIGHT — i.e. actually shape the
// UV-cell boundary — versus merely recorded. The distinction is what
// makes deletes output-sensitive: a dependent whose victim was not
// tight keeps its representation (minus the victim) with no
// re-derivation at all, because dropping a non-binding constraint
// leaves the covered region bitwise unchanged. Only dependents that
// lose a tight constraint see their cell grow and need fresh pruning
// (DeriveCRFrom, seeded from the surviving members).
//
// The registry is LAZY: a profile is built the first time a delete (or
// insert repair) needs it, from the object's current cr-set, and then
// reused. Stripping non-tight members keeps a profile valid — their
// bounds never touched the folded radius — so in steady-state churn
// most dependents answer the tightness question from cache. A profile
// is invalidated when its object is re-derived (the cr-set changed
// wholesale) and extended in place when an insert folds a new
// constraint in.
//
// Tightness is decided with a relative margin: a member whose radial
// bound comes within margin of the folded boundary at any sample angle
// counts as tight. Misclassifying a near-tight member as tight only
// costs an unnecessary re-derivation; the margin makes the cheap
// direction (skipping work) robust against sampling error. Since any
// set of live ids is a sound cell representation (the overlap test is
// conservative), tightness never gates correctness — only how much
// slack a kept representation accrues.
//
// Concurrency: like CRState, Topology has no internal locking; the DB
// guards it with its store-level mutation lock (mutators are exclusive).
type Topology struct {
	samples int
	margin  float64
	// growFrac is the materiality threshold of the delete triage: a
	// member is tight only if removing it would grow the cell's
	// represented area by more than this fraction (the runner-up bound
	// takes over across the samples the member owns). Below it, the
	// stripped representation is kept — the unclaimed growth is bounded
	// slack, cleared by the next re-derivation or compaction, and
	// answers stay exact either way (queries filter by true distance
	// bounds, never by the representation).
	growFrac float64
	dirs     []geom.Point   // the shared sweep directions of its resolution (ringOf)
	prof     []*cellProfile // by object id; nil = not cached
	min2     []float64      // scratch: second-minimum fold during a build
	arg      []int32        // scratch: per-sample owner (member index) during a build
}

// cellProfile is one object's cached radial boundary: the folded
// minimum over its cr-set's constraints (and the domain) at the
// registry's sample angles, its maximum, and the sorted ids of the
// members that bind the boundary somewhere.
type cellProfile struct {
	radius []float64
	maxR   float64
	tight  []int32 // sorted member ids within margin of the boundary
}

// NewTopology returns an empty registry at the given angular
// resolution (the build's RegionSamples keeps tightness decisions at
// the same granularity as derivation's pruning bounds).
func NewTopology(n, samples int) *Topology {
	return &Topology{
		samples:  samples,
		margin:   1e-3,
		growFrac: 0.03,
		dirs:     ringOf(samples).dirs,
		prof:     make([]*cellProfile, n),
	}
}

// grow extends the id space to cover id.
func (t *Topology) grow(id int32) {
	for int(id) >= len(t.prof) {
		t.prof = append(t.prof, nil)
	}
}

// Profile returns id's cached profile, or nil.
func (t *Topology) Profile(id int32) *cellProfile {
	if int(id) >= len(t.prof) {
		return nil
	}
	return t.prof[id]
}

// Invalidate drops id's cached profile (its cr-set was replaced).
func (t *Topology) Invalidate(id int32) {
	if int(id) < len(t.prof) {
		t.prof[id] = nil
	}
}

// Ensure returns id's profile, building it from the object's current
// cr-set members if not cached. One fold tracks, per sample angle, the
// minimum bound, the SECOND minimum and which member owns the minimum:
// a member is tight only where it is the unique owner of the boundary
// AND the runner-up sits more than margin above it — i.e. removing the
// member would actually grow the cell there. A member that merely ties
// the boundary (a coincident or shadowed constraint) is not tight:
// dropping it alone leaves the folded boundary bitwise unchanged, so
// the stripped representation covers the same region and no
// re-derivation is owed. Members whose uncertainty region overlaps oi's
// contribute no UV-edge and can never be tight.
func (t *Topology) Ensure(id int32, oi uncertain.Object, members []int32, objs []uncertain.Object, domain geom.Rect) *cellProfile {
	t.grow(id)
	if p := t.prof[id]; p != nil {
		return p
	}
	n := t.samples
	p := &cellProfile{radius: make([]float64, n)}
	if cap(t.min2) < n {
		t.min2 = make([]float64, n)
		t.arg = make([]int32, n)
	}
	min2, arg := t.min2[:n], t.arg[:n]
	for i, dir := range t.dirs {
		p.radius[i], _ = domainBound(oi.Region.C, domain, dir)
		min2[i] = math.Inf(1)
		arg[i] = -1 // the domain boundary owns the sample
	}
	for m, j := range members {
		c, ok := NewConstraint(oi, objs[j])
		if !ok {
			continue
		}
		for i, dir := range t.dirs {
			b, hit := c.Bound(dir)
			if !hit {
				continue
			}
			if b < p.radius[i] {
				min2[i] = p.radius[i]
				p.radius[i] = b
				arg[i] = int32(m)
			} else if b < min2[i] {
				min2[i] = b
			}
		}
	}
	// Accumulate, per owning member, the area the cell would gain if
	// that member were removed (the runner-up bound takes over on the
	// samples it owns; uniform angular weights, the dθ/2 factor cancels
	// against the total). Members below the growFrac threshold are not
	// tight — see the field comment.
	area := 0.0
	growth := make([]float64, len(members))
	for i := range p.radius {
		r := p.radius[i]
		area += r * r
		if arg[i] >= 0 && min2[i] > r*(1+t.margin) {
			g := min2[i]
			if hi := p.maxRSample(min2[i], r); hi < g {
				g = hi
			}
			growth[arg[i]] += g*g - r*r
		}
	}
	for m, j := range members {
		if growth[m] > t.growFrac*area {
			p.tight = append(p.tight, j)
		}
	}
	sort.Slice(p.tight, func(a, b int) bool { return p.tight[a] < p.tight[b] })
	p.maxR = maxOf(p.radius)
	t.prof[id] = p
	return p
}

// maxRSample caps a runner-up bound at a sane growth ceiling: an
// unbounded second minimum (no other constraint hits the sample) would
// otherwise dominate every area comparison. The cap is the sample's own
// bound scaled well past the materiality threshold, so an uncapped
// owner is always tight.
func (p *cellProfile) maxRSample(min2, r float64) float64 {
	if math.IsInf(min2, 1) {
		return r * 4
	}
	return min2
}

// AnyTight reports whether any victim binds p's boundary.
func (p *cellProfile) AnyTight(victims []int32) bool {
	for _, v := range victims {
		if _, ok := slices.BinarySearch(p.tight, v); ok {
			return true
		}
	}
	return false
}

// FoldIn folds a freshly inserted object's constraint into id's cached
// profile, reporting whether the new constraint is tight (clips the
// boundary by more than margin somewhere). A tight fold shrinks the
// cached radius in place and records newID in the tight set (appended —
// new ids are the dense maximum, preserving sort order). A non-tight
// fold leaves the profile untouched: the representation without the new
// id stays sound because it was formed before the new object existed,
// so the region it covers contains the (now smaller) true cell. No
// cached profile, or no UV-edge between the objects, reports false.
func (t *Topology) FoldIn(id int32, oi uncertain.Object, on uncertain.Object, newID int32) bool {
	p := t.Profile(id)
	if p == nil {
		return false
	}
	c, ok := NewConstraint(oi, on)
	if !ok {
		return false
	}
	tight := false
	for i, dir := range t.dirs {
		b, hit := c.Bound(dir)
		if !hit {
			continue
		}
		if b*(1+t.margin) < p.radius[i] {
			tight = true
		}
		if b < p.radius[i] {
			p.radius[i] = b
		}
	}
	if tight {
		p.tight = append(p.tight, newID)
		p.maxR = maxOf(p.radius)
	}
	return tight
}

// RepairOnInsert folds freshly inserted object on's constraint into
// every cached profile it can clip, recording on's id in the clipped
// objects' representations through the registry. It returns how many
// profiles were tightened. Objects without a cached profile are left
// alone: their representations were formed before on existed, so the
// regions they cover contain the (now smaller) true cells — sound, if
// slightly looser until their next rebuild. The distance pre-filter is
// exact: the UV-edge between oa and on lies at least
// (dist(ca,cn) − ra − rn)/2 from ca, so beyond the cached boundary
// maximum it cannot clip anything.
func (t *Topology) RepairOnInsert(cr *CRState, on uncertain.Object, objs []uncertain.Object, alive func(int32) bool) int {
	repaired := 0
	for i, p := range t.prof {
		a := int32(i)
		if p == nil || a == on.ID || !alive(a) {
			continue
		}
		oa := objs[a]
		if (oa.Region.C.Dist(on.Region.C)-oa.Region.R-on.Region.R)/2 > p.maxR {
			continue
		}
		if t.FoldIn(a, oa, on, on.ID) {
			cr.AddMember(a, on.ID)
			repaired++
		}
	}
	return repaired
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
