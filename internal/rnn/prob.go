package rnn

import (
	"math"
	"math/rand"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
)

// Prob integrates the PRNN qualification probability of object i:
//
//	P = E_{x ~ Oi} [ Π_{j≠i} P(dist(Xj, x) > dist(x, q)) ]
//	  = E_{x ~ Oi} [ Π_{j≠i} (1 − Fj(dist(x, q); x)) ],
//
// where Fj(d; x) is the distance CDF of Oj seen from x (computed
// exactly from ring lens areas, prob.DistanceCDF). The outer
// expectation is a deterministic polar quadrature over Oi's histogram
// rings: radial nodes per pdf bin (midpoint rule on ring area) times
// angular nodes. Objects that can never come within distmax(Oi,q) of a
// position of Oi contribute a factor of exactly 1 and are skipped, and
// so are competitors for which alive returns false (nil means all are
// live). Query integrates with RadialSteps × AngularSteps nodes.
func Prob(objs []uncertain.Object, id int32, q geom.Point, radialSteps, angularSteps int, alive func(int32) bool) float64 {
	oi := objs[id]
	relevant := relevantCompetitors(objs, oi, q, alive)

	if oi.Region.R == 0 {
		return survival(relevant, oi.Region.C, q)
	}

	bins := oi.PDF.Bins()
	total := 0.0
	for b := 0; b < bins; b++ {
		w := oi.PDF.Bin(b)
		if w == 0 {
			continue
		}
		a0 := oi.Region.R * float64(b) / float64(bins)
		a1 := oi.Region.R * float64(b+1) / float64(bins)
		ringArea := math.Pi * (a1*a1 - a0*a0)
		if ringArea <= 0 {
			continue
		}
		for s := 0; s < radialSteps; s++ {
			r0 := a0 + (a1-a0)*float64(s)/float64(radialSteps)
			r1 := a0 + (a1-a0)*float64(s+1)/float64(radialSteps)
			rm := (r0 + r1) / 2
			// Fraction of the bin's mass in this sub-ring (area-uniform
			// within a bin, matching the histogram model).
			frac := (r1*r1 - r0*r0) / (a1*a1 - a0*a0)
			for t := 0; t < angularSteps; t++ {
				phi := 2 * math.Pi * (float64(t) + 0.5) / float64(angularSteps)
				x := oi.Region.C.Add(geom.PolarUnit(phi).Scale(rm))
				total += w * frac / float64(angularSteps) * survival(relevant, x, q)
			}
		}
	}
	return clamp01(total)
}

// survival returns Π_j P(dist(Xj, x) > dist(x,q)) over the competitors.
func survival(competitors []uncertain.Object, x, q geom.Point) float64 {
	d := x.Dist(q)
	p := 1.0
	for _, oj := range competitors {
		p *= 1 - prob.DistanceCDF(oj, x, d)
		if p == 0 {
			return 0
		}
	}
	return p
}

// relevantCompetitors returns the objects that can be closer to some
// position of Oi than q is: dist(ci,cj) − ri − rj < distmax(Oi, q).
// All others multiply the survival product by exactly 1.
func relevantCompetitors(objs []uncertain.Object, oi uncertain.Object, q geom.Point, alive func(int32) bool) []uncertain.Object {
	dm := oi.DistMax(q)
	var out []uncertain.Object
	for j := range objs {
		if objs[j].ID == oi.ID || (alive != nil && !alive(objs[j].ID)) {
			continue
		}
		if oi.Region.C.Dist(objs[j].Region.C)-oi.Region.R-objs[j].Region.R < dm {
			out = append(out, objs[j])
		}
	}
	return out
}

// MonteCarlo estimates the PRNN probability of object id by sampling
// full possible worlds: draw a position for every object and count
// worlds in which q is strictly nearer to Oi's position than every
// other object's position. It is the unbiased ground truth used to
// cross-check Prob in tests.
func MonteCarlo(objs []uncertain.Object, id int32, q geom.Point, trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	oi := objs[id]
	hits := 0
	for t := 0; t < trials; t++ {
		x := oi.Sample(rng)
		d := x.Dist(q)
		win := true
		for j := range objs {
			if objs[j].ID == id {
				continue
			}
			// Cheap reject: the competitor can never be that close.
			if objs[j].DistMin(x) >= d {
				continue
			}
			if objs[j].Sample(rng).Dist(x) < d {
				win = false
				break
			}
		}
		if win {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
