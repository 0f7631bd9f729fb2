package uvdiagram_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/rnn"
)

func TestDBRNNMatchesBruteForce(t *testing.T) {
	db, objs := buildSmallDB(t, 40, nil)
	for _, q := range []uvdiagram.Point{
		uvdiagram.Pt(1000, 1000), uvdiagram.Pt(240, 1680), uvdiagram.Pt(1820, 660),
	} {
		ids, st := db.PossibleRNN(q)
		const tol = 1.0
		for i := range objs {
			m := rnn.BruteForceMargin(objs, objs[i].ID, q, 24)
			if math.Abs(m) <= tol {
				continue
			}
			has := false
			for _, id := range ids {
				if id == objs[i].ID {
					has = true
					break
				}
			}
			if has != (m > 0) {
				t.Fatalf("q=%v object %d: margin %.3f, in answers=%v", q, i, m, has)
			}
		}
		if st.Answers != len(ids) {
			t.Fatalf("stats answers %d != %d", st.Answers, len(ids))
		}
	}
}

func TestDBRNNProbabilitiesValid(t *testing.T) {
	db, _ := buildSmallDB(t, 25, nil)
	ans, _ := db.RNN(uvdiagram.Pt(1000, 1000))
	for _, a := range ans {
		if a.Prob < 0 || a.Prob > 1 {
			t.Fatalf("answer %d probability %v outside [0,1]", a.ID, a.Prob)
		}
	}
	for i := 1; i < len(ans); i++ {
		if ans[i-1].ID >= ans[i].ID {
			t.Fatalf("answers not sorted by ID: %v", ans)
		}
	}
}

// TestPossibleRNNUncertainRejectsInvalidRegion: a query region Build
// would refuse as an object's region — NaN or infinite radius, negative
// radius, non-finite center — is an ErrInvalidObject error, not an
// answer over the whole population, a sub-point region or a silent
// empty set. A valid zero radius still equals PossibleRNN.
func TestPossibleRNNUncertainRejectsInvalidRegion(t *testing.T) {
	db, _ := buildSmallDB(t, 200, nil)
	c := uvdiagram.Pt(1000, 1000)
	for _, region := range []uvdiagram.Circle{
		{C: c, R: math.NaN()},
		{C: c, R: math.Inf(1)},
		{C: c, R: -50},
		{C: uvdiagram.Pt(math.NaN(), 1000), R: 5},
		{C: uvdiagram.Pt(1000, math.Inf(-1)), R: 5},
	} {
		ids, _, err := db.PossibleRNNUncertain(region)
		if !errors.Is(err, uvdiagram.ErrInvalidObject) {
			t.Errorf("region %v: err = %v, want ErrInvalidObject", region, err)
		}
		if ids != nil {
			t.Errorf("region %v: ids %v returned beside the error", region, ids)
		}
	}
	got, _, err := db.PossibleRNNUncertain(uvdiagram.Circle{C: c})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := db.PossibleRNN(c); !slices.Equal(got, want) {
		t.Fatalf("zero radius: %v, PossibleRNN: %v", got, want)
	}
}
