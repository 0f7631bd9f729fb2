// Command uvserver builds a UV-index over a synthetic dataset (or opens
// a previously saved database file) and serves it over TCP with the
// binary protocol of internal/wire. Query it with uvclient.
//
// Usage:
//
//	uvserver [-addr :7031] [-n 10000] [-seed 1]
//	         [-data db.uvsnap] [-pager mmap|heap]
//	         [-shards 1] [-window 64]
//	         [-workers N] [-push-timeout 5s]
//	         [-pprof localhost:6060]
//
// With -pprof, the standard net/http/pprof endpoints are served on the
// given address so a live server can be profiled in place
// (go tool pprof http://localhost:6060/debug/pprof/profile). The same
// listener serves the full server metrics snapshot as expvar JSON under
// /debug/vars (key "uvdiagram") — the HTTP twin of `uvclient metrics`.
//
// With -data, the database file is opened with uvdiagram.Open instead
// of generating data: a page-image snapshot (uvbuild
// -snapshot) is served straight off the mmap'd file with zero rebuild
// (-pager heap copies it into memory instead), and the logical streams
// earlier releases wrote are still read. The file's population and
// shard layout win over -n, -seed and -shards, which only shape a fresh
// build. With -shards S > 1 a fresh build splits the domain into S
// equal-strip spatial shards, each with its own sub-grid index —
// queries route to the owning shard, and a write's leaf surgery touches
// only the shards its cells reach.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/server"
)

func main() {
	addr := flag.String("addr", ":7031", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	n := flag.Int("n", 10000, "number of synthetic objects (ignored with -data)")
	seed := flag.Int64("seed", 1, "random seed for the synthetic dataset")
	data := flag.String("data", "", "open a saved database file with uvdiagram.Open (snapshots serve off the file) instead of generating data")
	pagerMode := flag.String("pager", "", "page-store backend for -data snapshots: mmap (default; zero-copy off the file) or heap (copy into memory)")
	shards := flag.Int("shards", 1, "spatial shard count of a fresh build (ignored with -data; 1 = unsharded)")
	window := flag.Int("window", 0, "per-connection in-flight request window (0 = default 64)")
	workers := flag.Int("workers", 0, "server-wide query worker pool size (0 = GOMAXPROCS)")
	pushTimeout := flag.Duration("push-timeout", 0, "per-write deadline for subscription pushes; a slower consumer is disconnected (0 = default 5s)")
	flag.Parse()

	logger := log.New(os.Stderr, "uvserver: ", log.LstdFlags)

	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	var db *uvdiagram.DB
	if *data != "" {
		var err error
		db, err = uvdiagram.Open(*data, &uvdiagram.Options{Pager: *pagerMode})
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("opened %d objects from %s (pager=%s)", db.Len(), *data, db.PagerMode())
	} else {
		cfg := datagen.Config{N: *n, Seed: *seed}
		objs := datagen.Uniform(cfg)
		logger.Printf("building UV-index over %d objects (%d shards)...", *n, *shards)
		var err error
		db, err = uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{Shards: *shards})
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("built in %v", db.BuildStats().TotalDur)
	}
	if s := db.Shards(); s > 1 {
		gx, gy := db.ShardGrid()
		logger.Printf("spatial shards: %d (%d×%d grid)", s, gx, gy)
	}

	srv, err := server.NewWithConfig(db, server.Logf(logger),
		server.Config{Window: *window, Workers: *workers, PushTimeout: *pushTimeout})
	if err != nil {
		logger.Fatal(err)
	}
	// The snapshot behind OpMetrics, republished as expvar JSON on the
	// -pprof listener's /debug/vars.
	expvar.Publish("uvdiagram", expvar.Func(func() any {
		return srv.MetricsMap()
	}))
	logger.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(*addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
