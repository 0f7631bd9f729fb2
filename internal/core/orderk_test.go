package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

func orderKObjs(n int, seed int64) []uncertain.Object {
	return datagen.Uniform(datagen.Config{N: n, Side: 1000, Diameter: 60, Seed: seed})
}

func regionWithAll(objs []uncertain.Object, i int, domain geom.Rect) *PossibleRegion {
	pr := NewPossibleRegion(objs[i].Region.C, domain)
	for j := range objs {
		if j != i {
			pr.AddObject(objs[i], objs[j])
		}
	}
	return pr
}

func TestRadiusK1MatchesRadius(t *testing.T) {
	objs := orderKObjs(30, 1)
	domain := geom.Square(1000)
	pr := regionWithAll(objs, 0, domain)
	for i := 0; i < 64; i++ {
		phi := 2 * math.Pi * float64(i) / 64
		r1, _ := pr.Radius(phi)
		rk := pr.RadiusK(phi, 1)
		if math.Abs(r1-rk) > 1e-12 {
			t.Fatalf("phi=%v: Radius=%v RadiusK(1)=%v", phi, r1, rk)
		}
	}
}

func TestRadiusKMonotoneInK(t *testing.T) {
	objs := orderKObjs(40, 2)
	domain := geom.Square(1000)
	pr := regionWithAll(objs, 5, domain)
	for i := 0; i < 48; i++ {
		phi := 2 * math.Pi * float64(i) / 48
		prev := 0.0
		for k := 1; k <= 6; k++ {
			r := pr.RadiusK(phi, k)
			if r < prev-1e-12 {
				t.Fatalf("phi=%v k=%d: radius %v < previous %v", phi, k, r, prev)
			}
			prev = r
		}
	}
}

func TestContainsKAgreesWithRadial(t *testing.T) {
	objs := orderKObjs(35, 3)
	domain := geom.Square(1000)
	pr := regionWithAll(objs, 7, domain)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		phi := rng.Float64() * 2 * math.Pi
		rk := pr.RadiusK(phi, k)
		if rk <= 1 {
			continue
		}
		u := geom.PolarUnit(phi)
		inside := pr.center.Add(u.Scale(rk * 0.98))
		if !pr.ContainsK(inside, k) {
			t.Fatalf("k=%d phi=%v: point at 0.98·R_k not contained", k, phi)
		}
		outside := pr.center.Add(u.Scale(rk * 1.02))
		if domain.Contains(outside) && pr.ContainsK(outside, k) {
			t.Fatalf("k=%d phi=%v: point at 1.02·R_k contained", k, phi)
		}
	}
}

func TestOrderKDegenerateToWholeDomain(t *testing.T) {
	objs := orderKObjs(10, 5)
	domain := geom.Square(1000)
	pr := regionWithAll(objs, 0, domain)
	// With k larger than the number of constraints nothing can exclude:
	// the order-k region is the domain itself.
	k := len(pr.Constraints()) + 1
	for i := 0; i < 32; i++ {
		phi := 2 * math.Pi * float64(i) / 32
		dom, _ := domainBound(pr.center, pr.domain, geom.PolarUnit(phi))
		if r := pr.RadiusK(phi, k); math.Abs(r-dom) > 1e-9 {
			t.Fatalf("phi=%v: R_k=%v, domain exit %v", phi, r, dom)
		}
	}
}

func TestAreaKMonotone(t *testing.T) {
	objs := orderKObjs(40, 6)
	domain := geom.Square(1000)
	pr := regionWithAll(objs, 3, domain)
	prev := 0.0
	for k := 1; k <= 5; k++ {
		a := pr.AreaK(512, k)
		if a < prev-1e-6 {
			t.Fatalf("k=%d: area %v < area at k-1 %v", k, a, prev)
		}
		prev = a
	}
	if prev > domain.Area()*1.001 {
		t.Fatalf("order-5 area %v exceeds domain area %v", prev, domain.Area())
	}
}

func TestDeriveOrderKCRPreservesRegion(t *testing.T) {
	objs := orderKObjs(60, 7)
	domain := geom.Square(1000)
	tree := buildTestTree(objs)
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{1, 2, 3} {
		for _, i := range []int{0, 11, 37} {
			_, derived := DeriveOrderKCR(tree, objs[i], objs, domain, k, 256, nil)
			full := regionWithAll(objs, i, domain)
			// Membership must agree on random points around the object.
			d := derived.MaxRadiusK(256, k)
			for trial := 0; trial < 200; trial++ {
				phi := rng.Float64() * 2 * math.Pi
				r := rng.Float64() * d * 1.2
				p := objs[i].Region.C.Add(geom.PolarUnit(phi).Scale(r))
				if !domain.Contains(p) {
					continue
				}
				if got, want := derived.ContainsK(p, k), full.ContainsK(p, k); got != want {
					t.Fatalf("k=%d obj=%d p=%v: derived=%v full=%v", k, i, p, got, want)
				}
			}
		}
	}
}

func TestBuildOrderKAnswersExactly(t *testing.T) {
	objs := orderKObjs(80, 9)
	domain := geom.Square(1000)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildHelperRTree(store, 16)
	for _, k := range []int{1, 2, 4} {
		ix, stats, err := BuildOrderK(store, domain, tree, k, DefaultBuildOptions())
		if err != nil {
			t.Fatalf("BuildOrderK(k=%d): %v", k, err)
		}
		if ix.OrderK() != k {
			t.Fatalf("OrderK() = %d, want %d", ix.OrderK(), k)
		}
		if stats.SumCR <= 0 {
			t.Fatalf("k=%d: no cr-objects derived", k)
		}
		rng := rand.New(rand.NewSource(int64(10 + k)))
		for trial := 0; trial < 30; trial++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got, _, err := ix.PossibleKNN(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIdx := prob.KNNAnswerSet(objs, q, k)
			want := make([]int32, len(wantIdx))
			for i, j := range wantIdx {
				want[i] = objs[j].ID
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("k=%d q=%v: got %v want %v", k, q, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d q=%v: got %v want %v", k, q, got, want)
				}
			}
		}
	}
}

func TestBuildOrderKValidation(t *testing.T) {
	objs := orderKObjs(5, 10)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildOrderK(store, geom.Square(1000), nil, 0, DefaultBuildOptions()); err == nil {
		t.Fatal("BuildOrderK(k=0) should fail")
	}
}

func TestOrderKSerializeRoundTrip(t *testing.T) {
	objs := orderKObjs(30, 11)
	domain := geom.Square(1000)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildHelperRTree(store, 16)
	ix, _, err := BuildOrderK(store, domain, tree, 3, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf wire.Buffer
	ix.Save(&buf)
	got, err := LoadUVIndex(wire.NewReader(buf.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if got.OrderK() != 3 {
		t.Fatalf("loaded OrderK = %d, want 3", got.OrderK())
	}
	q := geom.Pt(321, 654)
	a1, _, err := ix.PossibleKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := got.PossibleKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("answers differ after round trip: %v vs %v", a1, a2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("answers differ after round trip: %v vs %v", a1, a2)
		}
	}
}
