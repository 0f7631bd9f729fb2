package uncertain

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewHistogramPDFValidation(t *testing.T) {
	if _, err := NewHistogramPDF(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewHistogramPDF([]float64{0, 0}); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := NewHistogramPDF([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewHistogramPDF([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := NewHistogramPDF([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Error("weights whose total overflows accepted")
	}
	p, err := NewHistogramPDF([]float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Bin(2); got != 0.5 {
		t.Errorf("Bin(2) = %v, want 0.5", got)
	}
}

func TestUniformPDF(t *testing.T) {
	p := Uniform(DefaultBins)
	if p.Bins() != DefaultBins {
		t.Fatalf("bins = %d", p.Bins())
	}
	// Uniform over the disk: P(ρ ≤ r) = r².
	for _, r := range []float64{0, 0.1, 0.35, 0.5, 0.77, 1} {
		if got := p.CumRadius(r); math.Abs(got-r*r) > 1e-12 {
			t.Errorf("CumRadius(%v) = %v, want %v", r, got, r*r)
		}
	}
}

func TestGaussianPDFShape(t *testing.T) {
	p := PaperGaussian()
	if p.Bins() != DefaultBins {
		t.Fatalf("bins = %d", p.Bins())
	}
	// Rayleigh cdf truncated to [0,1]: most mass well inside (σ = 1/3).
	if c := p.CumRadius(1.0 / 3.0); c < 0.3 || c > 0.5 {
		t.Errorf("CumRadius(σ) = %v, want ≈ 0.39", c)
	}
	// Mass concentrated near the center compared to uniform.
	u := Uniform(DefaultBins)
	if p.CumRadius(0.5) <= u.CumRadius(0.5) {
		t.Error("Gaussian should concentrate more mass near the center than uniform")
	}
}

func TestCumRadiusMonotone(t *testing.T) {
	for _, p := range []*HistogramPDF{Uniform(20), PaperGaussian(), Gaussian(7, 0.8)} {
		prev := -1.0
		for i := 0; i <= 1000; i++ {
			r := float64(i) / 1000
			c := p.CumRadius(r)
			if c < prev-1e-15 {
				t.Fatalf("CumRadius not monotone at %v", r)
			}
			prev = c
		}
		if p.CumRadius(0) != 0 || p.CumRadius(1) != 1 {
			t.Error("CumRadius endpoints wrong")
		}
	}
}

func TestSampleRadiusMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []*HistogramPDF{Uniform(20), PaperGaussian()} {
		const n = 100000
		counts := 0
		const at = 0.6
		for i := 0; i < n; i++ {
			if p.SampleRadius(rng) <= at {
				counts++
			}
		}
		got := float64(counts) / n
		want := p.CumRadius(at)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P(ρ≤%v) = %v, cdf says %v", at, got, want)
		}
	}
}

func TestSampleRadiusInRange(t *testing.T) {
	p := PaperGaussian()
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := p.SampleRadius(rng)
		return r >= 0 && r <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestWeightsCopy(t *testing.T) {
	p := Uniform(5)
	w := p.Weights()
	w[0] = 99
	if p.Bin(0) == 99 {
		t.Error("Weights must return a copy")
	}
	sum := 0.0
	for _, v := range p.Weights() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum = %v", sum)
	}
}

// samePDF reports whether two pdfs are bitwise equal, bars and
// cumulative table both.
func samePDF(a, b *HistogramPDF) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	return same(a.bins(), b.bins()) && same(a.cum(), b.cum())
}

// roundTrips reports whether p rebuilt from its stored bars is p, bit
// for bit: the invariant that lets an object's record be the one source
// of its pdf.
func roundTrips(t *testing.T, p *HistogramPDF) bool {
	t.Helper()
	q, err := NewHistogramPDF(p.Weights())
	if err != nil {
		t.Fatalf("rebuilding %d bars: %v", p.Bins(), err)
	}
	return samePDF(p, q)
}

// TestPDFRecordRoundTrip: NewHistogramPDF(p.Weights()) is p for the
// paper's pdfs, the extra shapes, the extreme bar counts and random
// weights spanning 2⁻¹⁰⁰…2¹⁰⁰ with zeros mixed in.
func TestPDFRecordRoundTrip(t *testing.T) {
	must := func(p *HistogramPDF, err error) *HistogramPDF {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(45))
	random := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			if rng.Intn(8) > 0 {
				w[i] = math.Ldexp(1+rng.Float64(), rng.Intn(201)-100)
			}
		}
		w[rng.Intn(n)] = math.Ldexp(1+rng.Float64(), rng.Intn(201)-100) // some mass
		return w
	}
	named := map[string]*HistogramPDF{
		"PaperGaussian":  PaperGaussian(),
		"Gaussian(7)":    Gaussian(7, 0.2),
		"Uniform":        Uniform(DefaultBins),
		"FromDensity":    must(FromDensity(DefaultBins, func(r float64) float64 { return 1 + math.Sin(9*r) })),
		"Ring":           must(Ring(DefaultBins, 0.6)),
		"Exponential":    must(Exponential(DefaultBins, 0.25)),
		"1 bar":          must(NewHistogramPDF([]float64{0.3})),
		"4096 uniform":   Uniform(4096),
		"4096 random":    must(NewHistogramPDF(random(4096))),
		"already summed": must(NewHistogramPDF([]float64{0.1, 0.2, 0.7})),
	}
	for name, p := range named {
		if !roundTrips(t, p) {
			t.Errorf("%s: rebuilt from its weights, the pdf is not bitwise the same", name)
		}
	}
	bad := 0
	const trials = 20000
	for range trials {
		n := 1 + rng.Intn(64)
		if rng.Intn(16) == 0 {
			n = 1 + rng.Intn(4096)
		}
		if !roundTrips(t, must(NewHistogramPDF(random(n)))) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d random pdfs are not bitwise the same rebuilt from their weights", bad, trials)
	}
}

// FuzzPDFRoundTrip: for any weights NewHistogramPDF accepts, the pdf
// rebuilt from Weights() is bitwise the same. The input is read as
// little-endian float64 weights.
func FuzzPDFRoundTrip(f *testing.F) {
	enc := func(w ...float64) []byte {
		b := make([]byte, 8*len(w))
		for i, v := range w {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(PaperGaussian().Weights()...))
	f.Add(enc(0.1, 0.2, 0.7))
	f.Add(enc(1e-300, 0, 3e100, 5))
	f.Add(enc(math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]float64, len(data)/8)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		p, err := NewHistogramPDF(w)
		if err != nil {
			return
		}
		if !roundTrips(t, p) {
			t.Fatalf("%v: rebuilt from its weights %v, the pdf is not bitwise the same", w, p.Weights())
		}
	})
}
