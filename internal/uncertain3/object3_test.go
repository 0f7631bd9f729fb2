package uncertain3

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"uvdiagram/internal/geom3"
)

func TestNewPDF3Validation(t *testing.T) {
	if _, err := NewPDF3(nil); err == nil {
		t.Fatal("empty pdf accepted")
	}
	if _, err := NewPDF3([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewPDF3([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Fatal("pdf whose mass overflows accepted")
	}
	if _, err := NewPDF3([]float64{0, 0}); err == nil {
		t.Fatal("zero-mass pdf accepted")
	}
	if _, err := NewPDF3([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	p, err := NewPDF3([]float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Bin(0)-0.25) > 1e-12 || math.Abs(p.Bin(1)-0.75) > 1e-12 {
		t.Fatalf("normalization wrong: %v, %v", p.Bin(0), p.Bin(1))
	}
}

func TestPDF3MassSumsToOne(t *testing.T) {
	for _, p := range []*PDF3{Uniform3(20), Gaussian3(20, 1.0/3), PaperGaussian3()} {
		sum := 0.0
		for k := 0; k < p.Bins(); k++ {
			sum += p.Bin(k)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("pdf mass %v", sum)
		}
	}
}

func TestCumRadiusMonotoneAndEndpoints(t *testing.T) {
	for _, p := range []*PDF3{Uniform3(10), Gaussian3(20, 0.25)} {
		if p.CumRadius(0) != 0 || p.CumRadius(1) != 1 {
			t.Fatalf("endpoints: %v, %v", p.CumRadius(0), p.CumRadius(1))
		}
		prev := 0.0
		for i := 0; i <= 100; i++ {
			r := float64(i) / 100
			c := p.CumRadius(r)
			if c < prev-1e-12 {
				t.Fatalf("CumRadius not monotone at %v: %v < %v", r, c, prev)
			}
			prev = c
		}
	}
}

func TestUniform3IsVolumeUniform(t *testing.T) {
	p := Uniform3(20)
	// CumRadius(r) must equal r³ for the volume-uniform law.
	for _, r := range []float64{0.1, 0.35, 0.5, 0.77, 0.99} {
		if got := p.CumRadius(r); math.Abs(got-r*r*r) > 1e-12 {
			t.Fatalf("CumRadius(%v) = %v, want %v", r, got, r*r*r)
		}
	}
}

func TestSampleRadiusMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []*PDF3{Uniform3(20), PaperGaussian3()} {
		const n = 20000
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = p.SampleRadius(rng)
		}
		sort.Float64s(samples)
		// Kolmogorov–Smirnov style check at a grid of quantiles.
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			r := samples[int(q*float64(n))]
			if d := math.Abs(p.CumRadius(r) - q); d > 0.02 {
				t.Fatalf("quantile %v: CDF mismatch %v", q, d)
			}
		}
	}
}

func TestObject3Distances(t *testing.T) {
	o := New3(0, geom3.Sphere{C: geom3.P3(10, 0, 0), R: 3}, nil)
	q := geom3.P3(0, 0, 0)
	if d := o.DistMin(q); math.Abs(d-7) > 1e-12 {
		t.Fatalf("DistMin = %v", d)
	}
	if d := o.DistMax(q); math.Abs(d-13) > 1e-12 {
		t.Fatalf("DistMax = %v", d)
	}
	// Inside the region the minimum distance is zero.
	if d := o.DistMin(geom3.P3(9, 0, 0)); d != 0 {
		t.Fatalf("inside DistMin = %v", d)
	}
}

func TestObject3SampleInsideRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := New3(0, geom3.Sphere{C: geom3.P3(5, -3, 2), R: 4}, PaperGaussian3())
	for i := 0; i < 2000; i++ {
		p := o.Sample(rng)
		if !o.Region.Contains(p) {
			t.Fatalf("sample %v outside region", p)
		}
	}
	// Point object always samples its center.
	pt := New3(1, geom3.Sphere{C: geom3.P3(1, 2, 3), R: 0}, nil)
	if p := pt.Sample(rng); p != geom3.P3(1, 2, 3) {
		t.Fatalf("point sample = %v", p)
	}
}

// TestPDF3RoundTrip: NewPDF3(p.Weights()) is p, bit for bit, so a DB3
// loaded from its stream holds the pdfs that were saved.
func TestPDF3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pdfs := []*PDF3{Uniform3(DefaultBins), PaperGaussian3(), Gaussian3(7, 0.2)}
	for range 2000 {
		w := make([]float64, 1+rng.Intn(64))
		for i := range w {
			w[i] = math.Ldexp(1+rng.Float64(), rng.Intn(201)-100)
		}
		p, err := NewPDF3(w)
		if err != nil {
			t.Fatal(err)
		}
		pdfs = append(pdfs, p)
	}
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	bad := 0
	for _, p := range pdfs {
		q, err := NewPDF3(p.Weights())
		if err != nil {
			t.Fatal(err)
		}
		if !same(p.bins, q.bins) || !same(p.cum, q.cum) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pdfs are not bitwise the same rebuilt from their weights", bad, len(pdfs))
	}
}
