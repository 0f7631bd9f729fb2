package core

import (
	"math"

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
// Retrieval is output-sensitive: neighbors are pulled lazily from a
// best-first incremental-NN browse of the R-tree (in exactly the order
// a materialized k-NN would list them) and the pull stops as soon as
// every sector is seeded — typically after a few dozen neighbors
// instead of the k+1 the eager implementation always materialized. At
// most k+1 neighbors are ever consumed, so the seed set is bitwise
// identical to the eager form.
//
// Objects whose uncertainty region overlaps Oi's are skipped: they
// contribute no UV-edge (Section III-C), so taking one as a sector's
// seed would leave that sector unbounded and ruin the pruning bound of
// Lemma 2. At the paper's densest settings (40k objects of diameter 40
// in a 10k×10k domain) most objects overlap one or two neighbors, so
// this filter is what keeps the pruning ratio at the reported ~90%.
func (sc *DeriveScratch) selectSeeds(tree *rtree.Tree, oi uncertain.Object, k, ks int) {
	if k <= 0 {
		k = DefaultSeedK
	}
	if ks <= 0 {
		ks = DefaultSeedSectors
	}
	sc.seeds = sc.seeds[:0]
	if cap(sc.taken) < ks {
		sc.taken = make([]bool, ks)
	} else {
		sc.taken = sc.taken[:ks]
		for i := range sc.taken {
			sc.taken[i] = false
		}
	}
	sc.it.Reset(tree, oi.Region.C)
	found := 0
	// k+1 because the query point is Oi's own center and Oi itself is
	// excluded below.
	for pulled := 0; pulled < k+1; pulled++ {
		nb, ok := sc.it.Next()
		if !ok {
			break
		}
		if nb.Item.ID == oi.ID || oi.Region.Overlaps(nb.Item.MBC) {
			continue
		}
		dir := nb.Item.MBC.C.Sub(oi.Region.C)
		sector := int(geom.NormalizeAngle(dir.Angle()) / (2 * math.Pi) * float64(ks))
		if sector >= ks {
			sector = ks - 1
		}
		if !sc.taken[sector] {
			sc.taken[sector] = true
			sc.seeds = append(sc.seeds, nb.Item.ID)
			found++
			if found == ks {
				break
			}
		}
	}
}
