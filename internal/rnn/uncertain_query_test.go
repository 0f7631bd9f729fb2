package rnn

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// bruteMarginUncertain is the uncertain-query analogue of
// BruteForceMargin: the witness slack with the query's minimum
// distance dist(x,q) − qr.
func bruteMarginUncertain(objs []uncertain.Object, id int32, uq geom.Circle, grid int) float64 {
	oi := objs[id]
	slack := func(x geom.Point) float64 {
		m := math.Inf(1)
		dq := math.Max(0, x.Dist(uq.C)-uq.R)
		for j := range objs {
			if objs[j].ID == id {
				continue
			}
			if s := objs[j].DistMax(x) - dq; s < m {
				m = s
			}
		}
		return m
	}
	best := slack(oi.Region.C)
	for ri := 0; ri <= grid; ri++ {
		r := oi.Region.R * float64(ri) / float64(grid)
		steps := 1
		if ri > 0 {
			steps = 4 * grid
		}
		for t := 0; t < steps; t++ {
			phi := 2 * math.Pi * float64(t) / float64(steps)
			x := oi.Region.C.Add(geom.PolarUnit(phi).Scale(r))
			if s := slack(x); s > best {
				best = s
			}
		}
	}
	return best
}

func TestUncertainQueryZeroRadiusMatchesPoint(t *testing.T) {
	objs := datagen.Uniform(datagen.Config{N: 40, Side: 1000, Diameter: 50, Seed: 31})
	tree := buildTree(objs)
	for _, q := range []geom.Point{geom.Pt(500, 500), geom.Pt(120, 860)} {
		a, _ := PossibleRNN(objs, tree, q, nil)
		b, _ := PossibleRNNUncertain(objs, tree, geom.Circle{C: q, R: 0}, nil)
		if len(a) != len(b) {
			t.Fatalf("q=%v: point %v vs zero-radius uncertain %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("q=%v: point %v vs zero-radius uncertain %v", q, a, b)
			}
		}
	}
}

func TestUncertainQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		objs := datagen.Uniform(datagen.Config{
			N: 25 + rng.Intn(25), Side: 1000, Diameter: 50, Seed: int64(trial + 40),
		})
		tree := buildTree(objs)
		uq := geom.Circle{
			C: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			R: rng.Float64() * 40,
		}
		got, _ := PossibleRNNUncertain(objs, tree, uq, nil)
		const tol = 1.0
		for i := range objs {
			m := bruteMarginUncertain(objs, objs[i].ID, uq, 24)
			if math.Abs(m) <= tol {
				continue
			}
			if containsID(got, objs[i].ID) != (m > 0) {
				t.Fatalf("trial %d uq=%v obj %d: margin %.3f, in answers=%v (answers %v)",
					trial, uq, i, m, containsID(got, objs[i].ID), got)
			}
		}
	}
}

func TestUncertainQueryMonotoneInRadius(t *testing.T) {
	// Growing the query's uncertainty region can only weaken the
	// competitors' constraints, so the answer set is monotone
	// non-decreasing in the query radius.
	objs := datagen.Uniform(datagen.Config{N: 50, Side: 1000, Diameter: 40, Seed: 91})
	tree := buildTree(objs)
	q := geom.Pt(470, 530)
	prev := 0
	for _, qr := range []float64{0, 10, 40, 120, 400} {
		ids, _ := PossibleRNNUncertain(objs, tree, geom.Circle{C: q, R: qr}, nil)
		if len(ids) < prev {
			t.Fatalf("answer count dropped from %d to %d at qr=%v", prev, len(ids), qr)
		}
		prev = len(ids)
	}
}

func TestUncertainQueryCoversOverlappingObjects(t *testing.T) {
	// Every object whose region intersects the query's region is
	// always an answer (a shared position has distance zero).
	objs := datagen.Uniform(datagen.Config{N: 60, Side: 1000, Diameter: 60, Seed: 13})
	tree := buildTree(objs)
	uq := geom.Circle{C: geom.Pt(500, 500), R: 150}
	ids, _ := PossibleRNNUncertain(objs, tree, uq, nil)
	for i := range objs {
		if uq.Overlaps(objs[i].Region) && !containsID(ids, objs[i].ID) {
			t.Fatalf("object %d overlaps the query region but is not an answer", i)
		}
	}
}
