package uvdiagram_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

func TestOrderKIndexMatchesPossibleKNN(t *testing.T) {
	db, _ := buildSmallDB(t, 60, nil)
	for _, k := range []int{1, 2, 5} {
		ix, err := db.NewOrderKIndex(k)
		if err != nil {
			t.Fatalf("NewOrderKIndex(%d): %v", k, err)
		}
		if ix.K() != k {
			t.Fatalf("K() = %d, want %d", ix.K(), k)
		}
		for _, q := range []uvdiagram.Point{
			uvdiagram.Pt(1000, 1000), uvdiagram.Pt(333, 1777), uvdiagram.Pt(1900, 100),
		} {
			got, _, err := ix.PossibleKNN(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.PossibleKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("k=%d q=%v: index %v vs baseline %v", k, q, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d q=%v: index %v vs baseline %v", k, q, got, want)
				}
			}
		}
	}
}

func TestOrderKProbsSumNearK(t *testing.T) {
	db, _ := buildSmallDB(t, 30, nil)
	ix, err := db.NewOrderKIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := ix.KNNProbs(uvdiagram.Pt(1000, 1000), 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, a := range ans {
		if a.Prob < 0 || a.Prob > 1 {
			t.Fatalf("answer %d probability %v outside [0,1]", a.ID, a.Prob)
		}
		sum += a.Prob
	}
	// Answers carry all the probability mass: the estimates over the
	// full object set sum to exactly k and non-answers get zero.
	if math.Abs(sum-3) > 1e-9 {
		t.Fatalf("answer probabilities sum to %v, want 3", sum)
	}
}

// TestOrderKOutOfDomain: every order-k grid query at a point outside
// the domain, NaN included, fails with an error matching
// ErrOutOfDomain, like the DB's own queries.
func TestOrderKOutOfDomain(t *testing.T) {
	db, _ := buildSmallDB(t, 30, nil)
	ix, err := db.NewOrderKIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []uvdiagram.Point{uvdiagram.Pt(-5, 5), uvdiagram.Pt(math.NaN(), 5), uvdiagram.Pt(5, math.Inf(1))} {
		if _, _, err := ix.PossibleKNN(q); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
			t.Errorf("PossibleKNN(%v): %v, want ErrOutOfDomain", q, err)
		}
		if _, err := ix.BatchPossibleKNN([]uvdiagram.Point{uvdiagram.Pt(5, 5), q}, nil); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
			t.Errorf("BatchPossibleKNN(…, %v): %v, want ErrOutOfDomain", q, err)
		}
		if _, _, err := ix.KNNProbs(q, 100, 1); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
			t.Errorf("KNNProbs(%v): %v, want ErrOutOfDomain", q, err)
		}
	}
}

func TestOrderKValidation(t *testing.T) {
	db, _ := buildSmallDB(t, 10, nil)
	if _, err := db.NewOrderKIndex(0); err == nil {
		t.Fatal("NewOrderKIndex(0) should fail")
	}
}

// TestLoadOrderKIndexRejectsMismatch: an order-k stream is only valid
// against the database it was built over. Loading it into a database
// with a different domain or population must fail loudly instead of
// silently answering k-NN queries from the wrong geometry; and build
// statistics must be reported as absent (not zero) on a loaded index.
func TestLoadOrderKIndexRejectsMismatch(t *testing.T) {
	db, _ := buildSmallDB(t, 40, nil)
	ix, err := db.NewOrderKIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.BuildStats(); !ok {
		t.Fatal("freshly built index reports no build stats")
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Same population count, different domain.
	cfgD := datagen.Config{N: 40, Side: 4000, Diameter: 30, Seed: 42}
	dbDomain, err := uvdiagram.Build(datagen.Uniform(cfgD), cfgD.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(buf.Bytes()), dbDomain); err == nil {
		t.Fatal("order-k stream accepted against a different domain")
	} else if !strings.Contains(err.Error(), "domain") {
		t.Fatalf("domain mismatch not named: %v", err)
	}

	// Same domain, different population.
	dbPop, _ := buildSmallDB(t, 25, nil)
	if _, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(buf.Bytes()), dbPop); err == nil {
		t.Fatal("order-k stream accepted against a different population")
	}

	// The matching database still loads, and the loaded index reports
	// its build stats as absent rather than a zeroed struct.
	loaded, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(buf.Bytes()), db)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := loaded.BuildStats(); ok {
		t.Fatalf("loaded index claims build stats %+v", st)
	}
}

func TestOrderKSaveLoad(t *testing.T) {
	db, _ := buildSmallDB(t, 40, nil)
	ix, err := db.NewOrderKIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(buf.Bytes()), db)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 3 {
		t.Fatalf("loaded K = %d, want 3", got.K())
	}
	// The stream format is frozen: the stream an earlier release wrote
	// of this same index (testdata/legacy/README.md) loads, and saving
	// what was loaded reproduces it byte for byte.
	legacy, err := os.ReadFile(legacyPath("orderk3.uvix"))
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range map[string][]byte{"fresh": buf.Bytes(), "legacy": legacy} {
		loaded, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(stream), db)
		if err != nil {
			t.Fatalf("%s stream: %v", name, err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), stream) {
			t.Fatalf("%s stream: re-saved index differs from the stream it was loaded from", name)
		}
		if name == "legacy" {
			got = loaded // the answers below must hold for the legacy stream
		}
	}
	q := uvdiagram.Pt(1000, 1000)
	a, _, err := ix.PossibleKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := got.PossibleKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("answers differ after reload: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("answers differ after reload: %v vs %v", a, b)
		}
	}
}
