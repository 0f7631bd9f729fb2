// Command uvbuild constructs a UV-index over a generated dataset and
// reports construction statistics: phase timings, pruning ratios and
// index shape. It is the quickest way to reproduce the construction-
// side findings of Figure 7 for a single configuration.
//
// Usage:
//
//	uvbuild [-n 30000] [-dataset uniform|skewed|utility|roads|rrlines]
//	        [-strategy ic|icr|basic] [-diameter 40] [-sigma 2500]
//	        [-theta 1.0] [-seed 1] [-shards 1]
//	        [-workers 0] [-snapshot db.uvsnap]
//
// With -shards S > 1 the domain is split into S equal-strip spatial
// shards whose sub-grid indexes are built in parallel from one
// derivation pass; the report then adds a per-shard shape table.
//
// With -snapshot, the built database is written as a page-image
// snapshot (DB.SaveSnapshot) that uvdiagram.Open (and
// uvserver -data) can serve straight off the mmap'd file with zero
// rebuild.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
)

func main() {
	n := flag.Int("n", 30000, "number of objects (synthetic datasets)")
	dataset := flag.String("dataset", "uniform", "uniform, skewed, utility, roads, rrlines")
	strategy := flag.String("strategy", "ic", "construction strategy: ic, icr, basic")
	diameter := flag.Float64("diameter", datagen.DefaultDiameter, "uncertainty region diameter")
	sigma := flag.Float64("sigma", 2500, "center std-dev for -dataset skewed")
	theta := flag.Float64("theta", 1.0, "split threshold Tθ")
	seedK := flag.Int("seedk", core.DefaultSeedK, "k of the seed k-NN query")
	seed := flag.Int64("seed", 1, "random seed")
	shards := flag.Int("shards", 1, "spatial shard count (1 = unsharded)")
	workers := flag.Int("workers", 0, "derivation goroutines (0 = GOMAXPROCS, 1 = sequential)")
	snapshot := flag.String("snapshot", "", "write the built database as a page-image snapshot (DB.SaveSnapshot) to this path")
	flag.Parse()

	cfg := datagen.Config{N: *n, Diameter: *diameter, Seed: *seed}
	var objs []uvdiagram.Object
	var err error
	switch strings.ToLower(*dataset) {
	case "uniform":
		objs = datagen.Uniform(cfg)
	case "skewed":
		objs = datagen.Skewed(cfg, *sigma)
	case "utility", "roads", "rrlines":
		objs, err = datagen.Real(datagen.RealKind(*dataset), 1.0, *seed)
	default:
		err = fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err != nil {
		fatal(err)
	}

	var strat uvdiagram.Strategy
	switch strings.ToLower(*strategy) {
	case "ic":
		strat = uvdiagram.IC
	case "icr":
		strat = uvdiagram.ICR
	case "basic":
		strat = uvdiagram.Basic
		if *n > 5000 {
			fmt.Fprintln(os.Stderr, "uvbuild: warning: Basic is quadratic; this will take a very long time")
		}
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	db, err := uvdiagram.Build(objs, geom.Square(datagen.DefaultSide), &uvdiagram.Options{
		Strategy:   strat,
		SplitTheta: *theta,
		SeedK:      *seedK,
		Workers:    *workers,
		Shards:     *shards,
	})
	if err != nil {
		fatal(err)
	}
	stats, ist, shardStats := db.BuildStats(), db.IndexStats(), db.ShardStats()
	if *snapshot != "" {
		if err := db.SaveSnapshot(*snapshot); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "uvbuild: saved page-image snapshot to %s (%s)\n", *snapshot, fileSize(*snapshot))
	}

	fmt.Printf("dataset        %s (|O|=%d, diameter=%.0f)\n", *dataset, len(objs), *diameter)
	fmt.Printf("strategy       %v\n", stats.Strategy)
	fmt.Printf("workers        %d (total is wall clock; seeds/pruning/refinement are CPU time summed across them)\n", stats.Workers)
	fmt.Printf("total Tc       %v\n", stats.TotalDur)
	fmt.Printf("  seeds        %v\n", stats.SeedDur)
	fmt.Printf("  pruning      %v\n", stats.PruneDur)
	fmt.Printf("  refinement   %v\n", stats.RefineDur)
	fmt.Printf("  indexing     %v\n", stats.IndexDur)
	if stats.Strategy != uvdiagram.Basic {
		fmt.Printf("I-prune ratio  %.1f%%\n", 100*stats.IPruneRatio())
		fmt.Printf("C-prune ratio  %.1f%%\n", 100*stats.CPruneRatio())
		fmt.Printf("avg |CR|       %.1f\n", stats.AvgCR())
	}
	if stats.SumR > 0 {
		fmt.Printf("avg |F|        %.1f\n", stats.AvgR())
	}
	fmt.Printf("index          %d non-leaf (%.1f KB RAM), %d leaves, %d pages, depth %d, avg list %.1f\n",
		ist.NonLeaf, float64(ist.MemBytes)/1024, ist.Leaves, ist.Pages, ist.MaxDepth, ist.AvgEntries)
	if len(shardStats) > 1 {
		fmt.Printf("shards         %d\n", len(shardStats))
		for i, sh := range shardStats {
			fmt.Printf("  shard %-3d    %v: %d live, %d leaves, %d pages, depth %d, %d entries\n",
				i, sh.Rect, sh.Live, sh.Index.Leaves, sh.Index.Pages, sh.Index.MaxDepth, sh.Index.Entries)
		}
	}
}

func fileSize(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return "?"
	}
	return fmt.Sprintf("%.1f MiB", float64(fi.Size())/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uvbuild:", err)
	os.Exit(1)
}
