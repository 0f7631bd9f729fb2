package core

import (
	"math"
	"sync"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// Domain-edge ids used as "active constraint" markers in the radial
// representation: negative codes distinguish the four box edges so that
// domain corners register as breakpoints.
const (
	edgeEast  = -1
	edgeNorth = -2
	edgeWest  = -3
	edgeSouth = -4
)

// PossibleRegion is a region that completely covers an object's UV-cell
// (Definition 2), represented radially around the object center: the
// region is star-shaped with respect to the center (DESIGN.md §3), so
// it is exactly { center + r·u(φ) : 0 ≤ r ≤ Radius(φ) }.
//
// Adding constraints (outside regions of other objects) only shrinks
// Radius, mirroring Step 6 of Algorithm 1. With the constraints of all
// r-objects present, the possible region is the exact UV-cell.
type PossibleRegion struct {
	center geom.Point
	domain geom.Rect
	cons   []Constraint
	prof   profile // lazily built incremental radius profile
}

// profile is the region's incremental radial representation at a fixed
// angular resolution: radius[i] and active[i] mirror Radius(ring.phis[i])
// bitwise — the same first-minimum-wins fold over the same constraint
// order — but are maintained in O(samples) per ADDED constraint instead
// of re-evaluated in O(samples × constraints) on every MaxRadius /
// Vertices call. Since constraints are append-only (Add only shrinks
// the region), folding the un-applied suffix lazily is always sound.
// The breakpoint list extracted from the profile is cached too, so
// I-pruning's MaxRadius and C-pruning's hull share one sweep.
type profile struct {
	samples int // angular resolution; 0 = unbuilt (or invalidated by Reset)
	applied int // prefix of cons folded into radius/active
	ring    *dirRing
	radius  []float64
	active  []int
	verts   []Vertex
	vertsAt int // len(cons) the cached verts were extracted at; -1 = invalid
	// evals counts the Radius evaluations vertex extraction has spent
	// since the last Reset: one per breakpoint, plus one per intruding
	// arc (see breakpoint).
	evals int
}

// dirRing is the immutable sweep table of one angular resolution:
// phis[i] = 2πi/samples and dirs[i] = geom.PolarUnit(phis[i]). Every
// uniform angular sweep of the package — PossibleRegion's profile,
// Topology and the order-k deriver — reads the one shared table of its
// resolution instead of re-deriving the directions per region.
type dirRing struct {
	phis []float64
	dirs []geom.Point
}

var dirRings sync.Map // samples → *dirRing

// ringOf returns the shared sweep table of the given resolution,
// building it on first use.
func ringOf(samples int) *dirRing {
	if r, ok := dirRings.Load(samples); ok {
		return r.(*dirRing)
	}
	r := &dirRing{phis: make([]float64, samples), dirs: make([]geom.Point, samples)}
	for i := range r.phis {
		r.phis[i] = 2 * math.Pi * float64(i) / float64(samples)
		r.dirs[i] = geom.PolarUnit(r.phis[i])
	}
	v, _ := dirRings.LoadOrStore(samples, r)
	return v.(*dirRing)
}

// NewPossibleRegion starts a possible region as the whole domain D
// (Step 2 of Algorithm 1). center must lie inside the domain.
func NewPossibleRegion(center geom.Point, domain geom.Rect) *PossibleRegion {
	p := &PossibleRegion{}
	p.Reset(center, domain)
	return p
}

// Reset re-centers the region over a (possibly different) domain and
// drops every constraint while retaining the allocated buffers — the
// per-worker derivation scratch reuses one region across objects this
// way, making the seeded-region phase allocation-free in steady state.
func (p *PossibleRegion) Reset(center geom.Point, domain geom.Rect) {
	p.center, p.domain = center, domain
	p.cons = p.cons[:0]
	p.prof.samples = 0 // center/domain moved: force re-init on next sync
	p.prof.vertsAt = -1
	p.prof.evals = 0
}

// syncProfile brings the profile to resolution samples with every
// constraint folded in, (re)initializing from the domain bounds when
// the resolution changed or the region was Reset.
func (p *PossibleRegion) syncProfile(samples int) *profile {
	pr := &p.prof
	if pr.samples != samples {
		pr.samples = samples
		pr.applied = 0
		pr.vertsAt = -1
		if pr.ring == nil || len(pr.ring.dirs) != samples {
			pr.ring = ringOf(samples)
		}
		if cap(pr.radius) < samples {
			pr.radius = make([]float64, samples)
			pr.active = make([]int, samples)
		} else {
			pr.radius = pr.radius[:samples]
			pr.active = pr.active[:samples]
		}
		for i, dir := range pr.ring.dirs {
			pr.radius[i], pr.active[i] = domainBound(p.center, p.domain, dir)
		}
	}
	for pr.applied < len(p.cons) {
		c := &p.cons[pr.applied]
		for i, dir := range pr.ring.dirs {
			if t, ok := c.Bound(dir); ok && t < pr.radius[i] {
				pr.radius[i], pr.active[i] = t, pr.applied
			}
		}
		pr.applied++
		pr.vertsAt = -1
	}
	return pr
}

// Center returns the star center (the object's center ci).
func (p *PossibleRegion) Center() geom.Point { return p.center }

// Domain returns the domain rectangle D.
func (p *PossibleRegion) Domain() geom.Rect { return p.domain }

// Constraints returns the constraints added so far. The slice is shared.
func (p *PossibleRegion) Constraints() []Constraint { return p.cons }

// Add shrinks the region by a prebuilt constraint.
func (p *PossibleRegion) Add(c Constraint) { p.cons = append(p.cons, c) }

// AddObject shrinks the region by Oj's outside region (Steps 4–6 of
// Algorithm 1). It reports whether a constraint was added (false when
// the uncertainty regions overlap and Xi(j) is empty).
func (p *PossibleRegion) AddObject(oi, oj uncertain.Object) bool {
	c, ok := NewConstraint(oi, oj)
	if ok {
		p.cons = append(p.cons, c)
	}
	return ok
}

// RadiusDir returns the exact extent of the region along the unit
// direction dir, together with the id of the active (binding)
// constraint: an index into Constraints, or a negative domain-edge code.
func (p *PossibleRegion) RadiusDir(dir geom.Point) (float64, int) {
	r, active := domainBound(p.center, p.domain, dir)
	for i := range p.cons {
		if t, ok := p.cons[i].Bound(dir); ok && t < r {
			r, active = t, i
		}
	}
	return r, active
}

// Radius is RadiusDir at polar angle phi.
func (p *PossibleRegion) Radius(phi float64) (float64, int) {
	return p.RadiusDir(geom.PolarUnit(phi))
}

// domainBound returns the distance from c to the boundary of domain
// along dir and the edge code of the boundary hit.
func domainBound(c geom.Point, domain geom.Rect, dir geom.Point) (float64, int) {
	t := math.Inf(1)
	active := edgeEast
	if dir.X > 0 {
		t, active = (domain.Max.X-c.X)/dir.X, edgeEast
	} else if dir.X < 0 {
		t, active = (domain.Min.X-c.X)/dir.X, edgeWest
	}
	if dir.Y > 0 {
		if ty := (domain.Max.Y - c.Y) / dir.Y; ty < t {
			t, active = ty, edgeNorth
		}
	} else if dir.Y < 0 {
		if ty := (domain.Min.Y - c.Y) / dir.Y; ty < t {
			t, active = ty, edgeSouth
		}
	}
	if t < 0 {
		t = 0
	}
	return t, active
}

// Contains reports whether q belongs to the region: inside the domain
// and outside every constraint's outside region. This is the direct
// membership predicate; it agrees with the radial representation.
func (p *PossibleRegion) Contains(q geom.Point) bool {
	if !p.domain.Contains(q) {
		return false
	}
	for i := range p.cons {
		if p.cons[i].Edge.InOutside(q) {
			return false
		}
	}
	return true
}

// MaxRadius returns (a tight upper bound on) the maximum distance d of
// the region from the object center, the quantity consumed by I-pruning
// (Lemma 2). The maximum of the radial function is attained at a
// breakpoint (DESIGN.md §3), so it is computed from the refined
// vertices; a small safety factor keeps the bound conservative —
// overestimating d only weakens pruning, never its correctness.
func (p *PossibleRegion) MaxRadius(samples int) float64 {
	vs := p.Vertices(samples)
	d := 0.0
	for _, v := range vs {
		if v.R > d {
			d = v.R
		}
	}
	if len(vs) == 0 {
		// Degenerate sweep (no breakpoints found): fall back to samples.
		if samples >= 16 {
			// The profile holds exactly Radius(2πi/samples) already.
			for _, r := range p.syncProfile(samples).radius {
				if r > d {
					d = r
				}
			}
		} else {
			for i := 0; i < samples; i++ {
				if r, _ := p.Radius(2 * math.Pi * float64(i) / float64(samples)); r > d {
					d = r
				}
			}
		}
	}
	return d * (1 + 1e-6)
}
