package exp

import (
	"fmt"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// RunTable2 regenerates Table II: query and construction performance on
// the (simulated) German geographic datasets. The paper reports UVD
// beating the R-tree on all three with pruning ratios of 86–89%.
func RunTable2(sc Scale, progress func(string)) (*Table, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table{ID: "table2", Title: fmt.Sprintf("real datasets at %.0f%% of paper size (simulated stand-ins; see DESIGN.md)", sc.RealFrac*100),
		Columns: []string{"dataset", "|O|", "Tq(UVD) ms", "Tq(R-tree) ms", "Tc s", "pc"},
		Notes:   []string{fmt.Sprintf("Tq charged at %.0f ms per index page read", DiskLatencyMs)}}
	for _, kind := range []datagen.RealKind{datagen.Utility, datagen.Roads, datagen.RRLines} {
		objs, err := datagen.Real(kind, sc.RealFrac, sc.Seed)
		if err != nil {
			return nil, err
		}
		domain := geom.Square(datagen.DefaultSide)
		store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
		if err != nil {
			return nil, err
		}
		opts := core.DefaultBuildOptions()
		opts.SeedK = sc.SeedK
		tree := core.BuildHelperRTree(store, opts.Fanout)
		_, stats, err := core.Build(store, domain, tree, opts)
		if err != nil {
			return nil, err
		}
		db, err := uvdiagram.Build(objs, domain, &uvdiagram.Options{SeedK: sc.SeedK})
		if err != nil {
			return nil, err
		}
		queries := datagen.Queries(sc.Queries, datagen.DefaultSide, sc.Seed+int64(len(objs)))
		uv, err := uvWorkload(db, queries)
		if err != nil {
			return nil, err
		}
		rt, err := rtWorkload(db, queries)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(kind), fmt.Sprintf("%d", len(objs)),
			ms(uv.TotalMs+DiskLatencyMs*uv.IndexIOs),
			ms(rt.TotalMs+DiskLatencyMs*rt.IndexIOs),
			fmt.Sprintf("%.1f", stats.TotalDur.Seconds()),
			pct(stats.CPruneRatio()))
		progress(fmt.Sprintf("table2 %s done", kind))
	}
	return t, nil
}
