package exp

import (
	"fmt"
	"math/rand"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/rnn"
)

// RunExtensions measures the future-work extensions (DESIGN.md §6):
// reverse nearest-neighbor queries, the order-k index versus the
// R-tree possible-k-NN path, continuous PNN safe regions, and the 3D
// UV-diagram. These have no paper counterpart — the tables document
// behavior, not reproduction targets.
func RunExtensions(sc Scale, progress func(string)) ([]*Table, error) {
	var tables []*Table

	// --- Reverse nearest neighbors vs |O|. ---
	t1 := &Table{
		ID:      "ext-rnn",
		Title:   "Extension: PRNN query (reverse nearest neighbors)",
		Columns: []string{"|O|", "Tq(ms)", "cutoff D2", "cands", "answers"},
	}
	for _, n := range sc.Sizes {
		progress(fmt.Sprintf("extensions: RNN at n=%d", n))
		cfg := datagen.Config{N: n, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed}
		objs := datagen.Uniform(cfg)
		db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: sc.SeedK})
		if err != nil {
			return nil, err
		}
		queries := datagen.Queries(sc.Queries, sc.Side, sc.Seed+1)
		var dur time.Duration
		var cutoff, cands, answers float64
		for _, q := range queries {
			t0 := time.Now()
			_, st := rnn.PossibleRNN(objs, db.RTree(), q, nil)
			dur += time.Since(t0)
			cutoff += st.Cutoff
			cands += float64(st.Candidates)
			answers += float64(st.Answers)
		}
		nq := float64(len(queries))
		t1.AddRow(fmt.Sprintf("%d", n),
			ms(dur.Seconds()*1000/nq),
			fmt.Sprintf("%.0f", cutoff/nq),
			fmt.Sprintf("%.1f", cands/nq),
			fmt.Sprintf("%.2f", answers/nq))
	}
	tables = append(tables, t1)

	// --- Possible-k-NN: order-k index vs the R-tree path. ---
	progress("extensions: order-k index")
	cfg := datagen.Config{N: sc.MidN, Side: sc.Side, Diameter: sc.Diameter, Seed: sc.Seed}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{SeedK: sc.SeedK})
	if err != nil {
		return nil, err
	}
	queries := datagen.Queries(sc.Queries, sc.Side, sc.Seed+2)
	t2 := &Table{
		ID:      "ext-orderk",
		Title:   fmt.Sprintf("Extension: possible-k-NN at |O|=%d", sc.MidN),
		Columns: []string{"k", "Tc(orderK build)", "Tq(orderK) µs", "Tq(R-tree) µs", "answers"},
	}
	for _, k := range []int{1, 2, 4} {
		b0 := time.Now()
		ix, err := db.NewOrderKIndex(k)
		if err != nil {
			return nil, err
		}
		build := time.Since(b0)
		var durIx, durRT time.Duration
		var nAns int
		for _, q := range queries {
			t0 := time.Now()
			ids, _, err := ix.PossibleKNN(q)
			if err != nil {
				return nil, err
			}
			durIx += time.Since(t0)
			nAns += len(ids)
			t0 = time.Now()
			if _, err := db.PossibleKNN(q, k); err != nil {
				return nil, err
			}
			durRT += time.Since(t0)
		}
		nq := float64(len(queries))
		t2.AddRow(fmt.Sprintf("%d", k),
			build.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", durIx.Seconds()*1e6/nq),
			fmt.Sprintf("%.1f", durRT.Seconds()*1e6/nq),
			fmt.Sprintf("%.1f", float64(nAns)/nq))
	}
	tables = append(tables, t2)

	// --- Continuous PNN: safe-region savings on a random walk. ---
	progress("extensions: continuous PNN")
	t3 := &Table{
		ID:      "ext-continuous",
		Title:   fmt.Sprintf("Extension: continuous PNN (random walk, |O|=%d)", sc.MidN),
		Columns: []string{"step", "moves", "recomputes", "saved", "Tmove(µs)", "Tnaive(µs)"},
	}
	for _, step := range []float64{2, 10, 50} {
		rng := rand.New(rand.NewSource(sc.Seed + 3))
		q := geom.Pt(sc.Side/2, sc.Side/2)
		sess, err := db.NewContinuousPNN(q)
		if err != nil {
			return nil, err
		}
		const moves = 2000
		t0 := time.Now()
		for i := 0; i < moves; i++ {
			q = geom.Pt(
				clampF(q.X+rng.NormFloat64()*step, 1, sc.Side-1),
				clampF(q.Y+rng.NormFloat64()*step, 1, sc.Side-1),
			)
			if _, _, err := sess.Move(q); err != nil {
				return nil, err
			}
		}
		durMove := time.Since(t0)
		// Naive comparison: full PNN at a sample of the positions.
		t0 = time.Now()
		const naiveSample = 50
		for i := 0; i < naiveSample; i++ {
			if _, _, err := db.PNN(geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)); err != nil {
				return nil, err
			}
		}
		durNaive := time.Since(t0)
		st := sess.Stats()
		t3.AddRow(fmt.Sprintf("%.0f", step),
			fmt.Sprintf("%d", st.Moves),
			fmt.Sprintf("%d", st.Recomputes),
			pct(1-float64(st.Recomputes)/float64(st.Moves)),
			fmt.Sprintf("%.1f", durMove.Seconds()*1e6/moves),
			fmt.Sprintf("%.1f", durNaive.Seconds()*1e6/naiveSample))
	}
	tables = append(tables, t3)

	// --- 3D UV-diagram. ---
	progress("extensions: 3D UV-diagram")
	t4 := &Table{
		ID:      "ext-3d",
		Title:   "Extension: 3D UV-diagram (octree index)",
		Columns: []string{"|O|", "Tc", "prune%", "avg|CR|", "Tq(index) µs", "Tq(brute) µs"},
	}
	n3max := sc.MidN
	if n3max > 2000 {
		n3max = 2000 // 3D builds are cubic-volume work; cap the sweep
	}
	for _, n := range []int{n3max / 4, n3max / 2, n3max} {
		if n < 10 {
			continue
		}
		rng := rand.New(rand.NewSource(sc.Seed + 4))
		side := 1000.0
		objs3 := make([]uvdiagram.Object3, n)
		for i := range objs3 {
			objs3[i] = uvdiagram.NewObject3(int32(i),
				5+rng.Float64()*(side-10), 5+rng.Float64()*(side-10), 5+rng.Float64()*(side-10),
				2+rng.Float64()*4, uvdiagram.GaussianPDF3())
		}
		db3, err := uvdiagram.Build3(objs3, uvdiagram.CubeDomain(side), nil)
		if err != nil {
			return nil, err
		}
		bs := db3.BuildStats()
		var durIx, durBr time.Duration
		const q3n = 20
		for i := 0; i < q3n; i++ {
			q := uvdiagram.Pt3(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
			t0 := time.Now()
			if _, _, err := db3.PNN(q); err != nil {
				return nil, err
			}
			durIx += time.Since(t0)
			t0 = time.Now()
			db3.PNNBruteForce(q)
			durBr += time.Since(t0)
		}
		t4.AddRow(fmt.Sprintf("%d", n),
			bs.TotalDur.Round(time.Millisecond).String(),
			pct(bs.PruneRatio()),
			fmt.Sprintf("%.1f", bs.AvgCR()),
			fmt.Sprintf("%.1f", durIx.Seconds()*1e6/q3n),
			fmt.Sprintf("%.1f", durBr.Seconds()*1e6/q3n))
	}
	tables = append(tables, t4)

	return tables, nil
}
