package prob

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// fixedSetup is ProbsScratch's set-up for a fixed rule: the answer
// set, its armed sweeps and the integration support. ok is false where
// a shortcut answered (out holds its answer) and nothing is integrated.
func fixedSetup(objs []uncertain.Object, q geom.Point) (out []float64, ans []int, sw []sweep, lo, hi float64, ok bool) {
	out = make([]float64, len(objs))
	sw = make([]sweep, len(objs))
	for i := range objs {
		sw[i] = reach(objs[i], q)
	}
	ans = answerSetInto(nil, len(sw), func(i int) (float64, float64) { return sw[i].min, sw[i].max })
	switch len(ans) {
	case 0:
		return out, ans, sw, 0, 0, false
	case 1:
		out[ans[0]] = 1
		return out, ans, sw, 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(1)
	for _, i := range ans {
		lo = math.Min(lo, sw[i].min)
	}
	for i := range sw {
		hi = math.Min(hi, sw[i].max)
	}
	if hi <= lo {
		for _, i := range ans {
			out[i] = 1 / float64(len(ans))
		}
		return out, ans, sw, lo, hi, false
	}
	for _, i := range ans {
		sw[i], _ = sw[i].arm(objs[i], nil)
	}
	return out, ans, sw, lo, hi, true
}

// trapezoidProbs is the rule refine computes at level steps, restated
// on its own: the trapezoid-product sum over 2·steps half-panels, with
// G_a = Π_{b≠a} (1 − F_b) at both ends of each. Capped, a query's
// answer is this rule at quadCap steps, bitwise.
func trapezoidProbs(objs []uncertain.Object, q geom.Point, steps int) (out []float64, ok bool) {
	out, ans, sw, lo, hi, ok := fixedSetup(objs, q)
	if !ok {
		return out, false
	}
	k := len(ans)
	h := (hi - lo) / float64(steps)
	f0, f1, g0, g1 := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	at := func(f, g []float64, r float64) {
		for a, i := range ans {
			f[a] = sw[i].cdf(r)
		}
		for a := range g {
			g[a] = 1
			for b := range f {
				if b != a {
					g[a] *= 1 - f[b]
				}
			}
		}
	}
	at(f0, g0, lo)
	for u := 1; u <= 2*steps; u++ {
		r := lo + float64(u/2)*h // a panel end
		if u%2 == 1 {
			r = lo + (float64(u/2)+0.5)*h // a midpoint
		}
		at(f1, g1, r)
		for a, i := range ans {
			if df := f1[a] - f0[a]; df > 0 {
				out[i] += df * (g0[a] + g1[a]) / 2
			}
		}
		f0, f1, g0, g1 = f1, f0, g1, g0
	}
	return out, true
}

// fixedProbs is the midpoint-product rule — one plain steps-panel sum
// Σ_t ΔF_a·Π_{b≠a} (1 − F_b(mid_t)) over the sweep kernel — kept so the
// quadrature has a rule it shares no sum with to be measured against:
// at 200 steps it is the fixed rule Integrate replaced, and
// extrapolated from thousands of panels it is the converged reference.
func fixedProbs(objs []uncertain.Object, q geom.Point, steps int) (out []float64, ok bool) {
	out, ans, sw, lo, hi, ok := fixedSetup(objs, q)
	if !ok {
		return out, false
	}
	k := len(ans)
	h := (hi - lo) / float64(steps)
	fPrev, fNext, fMid := make([]float64, k), make([]float64, k), make([]float64, k)
	for a, i := range ans {
		fPrev[a] = sw[i].cdf(lo)
	}
	for t := 0; t < steps; t++ {
		r1 := lo + float64(t+1)*h
		mid := lo + (float64(t)+0.5)*h
		for a, i := range ans {
			fNext[a] = sw[i].cdf(r1)
			fMid[a] = sw[i].cdf(mid)
		}
		for a := range ans {
			df := fNext[a] - fPrev[a]
			if df <= 0 {
				continue
			}
			prod := 1.0
			for b := range ans {
				if b == a {
					continue
				}
				prod *= 1 - fMid[b]
				if prod == 0 {
					break
				}
			}
			out[ans[a]] += df * prod
		}
		copy(fPrev, fNext)
	}
	return out, true
}

// convergedProbs is the reference the accuracy figures are measured
// against: the 4 000- and 8 000-panel sums, Richardson-extrapolated.
// Where the CDFs are smooth it is exact to rounding; where they are
// steps no uniform grid converges and it is merely a 40× finer one.
func convergedProbs(objs []uncertain.Object, q geom.Point) []float64 {
	coarse, _ := fixedProbs(objs, q, 4000)
	fine, _ := fixedProbs(objs, q, 8000)
	for i := range fine {
		fine[i] = (4*fine[i] - coarse[i]) / 3
	}
	return fine
}

// servingStream draws n PNN queries that reach the quadrature over the
// benchmark's pnn-serve population (datagen.Uniform, 8 000 objects,
// paper defaults): each query's candidates are its answer set in id
// order, as the engine and the bench oracle pass them.
func servingStream(n int) (cases [][]uncertain.Object, qs []geom.Point) {
	pop := datagen.Uniform(datagen.Config{N: 8000, Seed: 20100303})
	for _, q := range datagen.Queries(8*n, datagen.DefaultSide, 20100304) {
		idx := AnswerSet(pop, q)
		if len(idx) < 2 {
			continue // the single-answer shortcut integrates nothing
		}
		cands := make([]uncertain.Object, len(idx))
		for i, j := range idx {
			cands[i] = pop[j]
		}
		if cases, qs = append(cases, cands), append(qs, q); len(cases) == n {
			break
		}
	}
	return cases, qs
}

// errStats collects |p − reference| over the entries of many queries.
type errStats []float64

func (e *errStats) add(got, want []float64) (worst float64) {
	for i := range want {
		d := math.Abs(got[i] - want[i])
		*e = append(*e, d)
		worst = math.Max(worst, d)
	}
	return worst
}

func (e errStats) quantile(p float64) float64 {
	if len(e) == 0 {
		return 0
	}
	sort.Float64s(e)
	return e[int(p*float64(len(e)-1))]
}

// TestQuadratureAccuracy is the stated accuracy of the quadrature. On
// the serving stream its p50, p99 and max error against the converged
// reference are each no worse than the 200-step rule's, and Σp is
// within 1e-5 of 1. On every parity family a query that converged is
// within 10·quadTol of the reference and a query that hit the cap is
// the plain quadCap-level trapezoid-product sum, bitwise; neither rule
// converges there (step CDFs), so both errors are logged side by side.
func TestQuadratureAccuracy(t *testing.T) {
	stream, perFamily := 600, 120
	if testing.Short() || raceEnabled {
		stream, perFamily = 60, 12
	}
	var sc Scratch

	t.Run("serving", func(t *testing.T) {
		var quad, fixed errStats
		worstSum := 0.0
		cases, qs := servingStream(stream)
		for c, objs := range cases {
			want := convergedProbs(objs, qs[c])
			got := ProbsScratch(objs, qs[c], &sc)
			if sc.Capped {
				t.Errorf("query %d at %v did not converge", c, qs[c])
			}
			sum := 0.0
			for _, p := range got {
				sum += p
			}
			worstSum = math.Max(worstSum, math.Abs(sum-1))
			quad.add(got, want)
			old, _ := fixedProbs(objs, qs[c], 200)
			fixed.add(old, want)
		}
		t.Logf("%d queries: quadrature p50 %.2g p99 %.2g max %.2g, max |Σp − 1| %.2g; 200-step rule p50 %.2g p99 %.2g max %.2g",
			len(cases), quad.quantile(0.5), quad.quantile(0.99), quad.quantile(1), worstSum,
			fixed.quantile(0.5), fixed.quantile(0.99), fixed.quantile(1))
		for _, p := range []float64{0.5, 0.99, 1} {
			if quad.quantile(p) > fixed.quantile(p) {
				t.Errorf("quantile %v of the error: quadrature %.3g, 200-step rule %.3g", p, quad.quantile(p), fixed.quantile(p))
			}
		}
		if worstSum > 1e-5 {
			t.Errorf("max |Σp − 1| = %.3g, want ≤ 1e-5", worstSum)
		}
	})

	for family, name := range parityFamilies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20100305 + int64(family)))
			var conv, capQuad, capFixed, fixed errStats
			capped, n := 0, 0
			for c := 0; c < perFamily; c++ {
				objs, q := parityCase(rng, family)
				old, ok := fixedProbs(objs, q, 200)
				if !ok {
					continue
				}
				n++
				want := convergedProbs(objs, q)
				got := ProbsScratch(objs, q, &sc)
				if sc.Capped {
					capped++
					plain, _ := trapezoidProbs(objs, q, quadCap)
					for i := range plain {
						if math.Float64bits(got[i]) != math.Float64bits(plain[i]) {
							t.Fatalf("case %d capped: p[%d] = %v, plain %d-panel trapezoid-product sum %v", c, i, got[i], quadCap, plain[i])
						}
					}
					capQuad.add(got, want)
					capFixed.add(old, want)
					continue
				}
				if worst := conv.add(got, want); worst > 10*quadTol {
					t.Errorf("case %d converged %.3g from the reference, want ≤ %.3g (q=%v, %d candidates)", c, worst, 10*quadTol, q, len(objs))
				}
				fixed.add(old, want)
			}
			t.Logf("%d integrated: %d converged, error p50 %.2g p99 %.2g max %.2g (200-step rule %.2g / %.2g / %.2g); %d capped, error max %.2g (200-step rule %.2g)",
				n, n-capped, conv.quantile(0.5), conv.quantile(0.99), conv.quantile(1),
				fixed.quantile(0.5), fixed.quantile(0.99), fixed.quantile(1),
				capped, capQuad.quantile(1), capFixed.quantile(1))
		})
	}
}

// TestQuadratureNested pins the arithmetic the quadrature shares with a
// fixed rule, which bench/oracle.go and the batch engines rely on.
func TestQuadratureNested(t *testing.T) {
	rng := rand.New(rand.NewSource(20100306))
	var sc Scratch
	for c := 0; c < 450; c++ {
		objs, q := parityCase(rng, c%len(parityFamilies))
		got := append([]float64(nil), ProbsScratch(objs, q, &sc)...)
		evals, hitCap := sc.CDFEvals, sc.Capped
		ansIdx := AnswerSet(objs, q)
		ans := make([]uncertain.Object, len(ansIdx))
		inAns := make(map[int]bool)
		for a, i := range ansIdx {
			ans[a] = objs[i]
			inAns[i] = true
		}
		for i, p := range got {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("case %d: p[%d] = %v outside [0, 1]", c, i, p)
			}
			if !inAns[i] && p != 0 {
				t.Fatalf("case %d: p[%d] = %v outside the answer set", c, i, p)
			}
		}
		// A candidate superset changes nothing: the engine integrates
		// over a leaf's candidates, the bench oracle over the answer set
		// only. (Coincident point objects can hold the smallest distmax
		// and stay outside the answer set; dropping them moves hi.)
		hi, _ := Dminmax(objs, q)
		if only, _ := Dminmax(ans, q); only == hi {
			for a, p := range Probs(ans, q) {
				if math.Float64bits(got[ansIdx[a]]) != math.Float64bits(p) {
					t.Fatalf("case %d: p[%d] = %v over the candidates, %v over the answer set", c, ansIdx[a], got[ansIdx[a]], p)
				}
			}
		}
		if _, ok := trapezoidProbs(objs, q, quadFirst); !ok {
			if evals != 0 || hitCap {
				t.Fatalf("case %d: a shortcut answered but CDFEvals = %d, Capped = %v", c, evals, hitCap)
			}
			continue
		}

		// Every level's sum off the shared node tables is the plain
		// trapezoid-product rule of that many panels, bitwise.
		k := len(ans)
		nodes, surv, p := make([]float64, (2*quadCap+1)*k), make([]float64, (2*quadCap+1)*k), make([]float64, k)
		lo := math.Inf(1)
		for _, o := range ans {
			lo = math.Min(lo, o.DistMin(q))
		}
		stop := (evals/k - 1) / 2 // panels of the level the query stopped at
		if evals%k != 0 || stop > quadCap || hitCap && stop != quadCap {
			t.Fatalf("case %d: %d CDF evaluations over %d answer objects (capped %v)", c, evals, k, hitCap)
		}
		for s := quadFirst; s <= quadCap; s *= 2 {
			refine(p, nodes, surv, s, lo, hi, func(a int, r float64) float64 { return DistanceCDF(ans[a], q, r) })
			plain, _ := trapezoidProbs(objs, q, s)
			for a, i := range ansIdx {
				if math.Float64bits(p[a]) != math.Float64bits(plain[i]) {
					t.Fatalf("case %d level %d: p[%d] = %v off the node table, plain rule %v", c, s, i, p[a], plain[i])
				}
				// An object keeps p > 0 exactly when the plain rule of
				// the level it stopped at gives it; capped, p is that
				// rule's sum.
				if s == stop && ((got[i] > 0) != (plain[i] > 0) || hitCap && math.Float64bits(got[i]) != math.Float64bits(plain[i])) {
					t.Fatalf("case %d stopped at level %d (capped %v): p[%d] = %v, plain rule %v", c, s, hitCap, i, got[i], plain[i])
				}
			}
		}
	}

	// A point object beside a region is a step CDF against a smooth one:
	// no level agrees with the last, and the answer is the plain
	// quadCap-level sum.
	objs := []uncertain.Object{
		uncertain.New(0, geom.Circle{C: geom.Pt(3, 0), R: 0}, nil),
		obj(1, 0, 4, 3),
	}
	q := geom.Pt(0, 0)
	got := ProbsScratch(objs, q, &sc)
	if !sc.Capped || sc.CDFEvals != (2*quadCap+1)*len(objs) {
		t.Fatalf("point-object case: Capped = %v after %d CDF evaluations", sc.Capped, sc.CDFEvals)
	}
	plain, _ := trapezoidProbs(objs, q, quadCap)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(plain[i]) {
			t.Fatalf("point-object case: p[%d] = %v, plain %d-panel trapezoid-product sum %v", i, got[i], quadCap, plain[i])
		}
	}

	// Steady state allocates nothing.
	cases, qs := servingStream(8)
	if raceEnabled {
		return // the race runtime allocates on its own
	}
	if n := testing.AllocsPerRun(10, func() {
		for c := range cases {
			ProbsScratch(cases[c], qs[c], &sc)
		}
	}); n != 0 {
		t.Errorf("ProbsScratch allocates %v times per %d warm queries", n, len(cases))
	}
}

// TestQuadratureEvals is the blocking, host-independent cost gate of
// the quadrature: a count, not a time. The fixed 200-step rule
// evaluated 401 radii per answer-set object whatever the input, the
// nested midpoint-product rule 129 on this stream.
func TestQuadratureEvals(t *testing.T) {
	const maxMeanRadii = 110
	var sc Scratch
	cases, qs := servingStream(600)
	evals, objects, worst := 0, 0, 0
	for c, objs := range cases {
		ProbsScratch(objs, qs[c], &sc)
		evals += sc.CDFEvals
		objects += len(objs)
		if r := sc.CDFEvals / len(objs); r > worst {
			worst = r
		}
	}
	mean := float64(evals) / float64(objects)
	t.Logf("%d queries: %.1f radii per answer-set object on average, at most %d", len(cases), mean, worst)
	if mean > maxMeanRadii {
		t.Errorf("mean radii per answer-set object = %.1f, want ≤ %d", mean, maxMeanRadii)
	}
	if worst > 2*quadCap+1 {
		t.Errorf("a query evaluated %d radii per object, the cap is %d", worst, 2*quadCap+1)
	}
}
