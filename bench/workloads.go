package main

import (
	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// phase is one kind of traffic. The driver runs each workload on its
// own and wants every end-to-end metric from each of them, so every
// workload runs every phase; its own phases get the long share.
type phase int

const (
	pnnClosed phase = iota // closed loop, 2 conns, single OpPNN
	batchPNN               // BatchPNN frames, 1 conn
	moves                  // subscription random walks over 2 conns
	knnPipe                // pipelined OpPossibleKNN, window 64, 2 conns
	churn                  // writer conn beside a closed-loop PNN reader conn
	numPhases
)

// Fixed traffic constants (README.md, "Process model").
const (
	conns            = 2   // client connections; this host has 2 cores
	openRate         = 600 // open-loop arrivals per second, ≈45 % of closed-loop capacity
	knnK             = 4
	knnWindow        = 64
	domainSide       = datagen.DefaultSide
	moveStep         = 0.5 // random-walk step of a subscription, domain units
	churnPairsPerSec = 100 // nominal writer speed, beside a reader, that turns a churn phase's length into its op count
	ownShare         = 0.7 // of every round goes to the workload's own phases, split evenly; the rest to the others, evenly
	baseSecs         = 20  // -seconds at which the traced pass runs its full op counts
)

// workload is one named set of inputs: a dataset, a page store and the
// phases that are its own.
type workload struct {
	name   string
	why    string
	sigma  float64 // 0: datagen.Uniform; >0: datagen.Skewed with this σ
	n      int
	mmap   bool    // serve a v5 snapshot through pager.FileStore instead of the heap
	setups int     // set-ups per run; setup_s is their median
	own    []phase // the traffic the workload exists for
}

// readerIsPNN reports whether the workload's pnn_* metrics come from the
// reader of its churn phase. It then runs no closed-loop PNN phase.
func (w workload) readerIsPNN() bool { return w.owns(churn) }

func (w workload) owns(p phase) bool {
	for _, o := range w.own {
		if o == p {
			return true
		}
	}
	return false
}

// share is the part of every round that phase p gets.
func (w workload) share(p phase) float64 {
	run := int(numPhases)
	if w.readerIsPNN() {
		if p == pnnClosed {
			return 0
		}
		run--
	}
	if w.owns(p) {
		return ownShare / float64(len(w.own))
	}
	return (1 - ownShare) / float64(run-len(w.own))
}

// sizes are the counts a test shrinks; everything else is fixed.
type sizes struct {
	subs    int // subscriptions in the moves phase
	frame   int // points per BatchPNN frame
	oracle  int // brute-force-checked queries per kind
	scale   float64
	pnnOps  int // traced-pass op counts at -seconds = baseSecs
	knnOps  int
	moveOps int
	pairs   int // traced delete/insert pairs over the wire, and as many in-process
	pushers int // live subscriptions during the traced churn
	derive  int // objects re-derived for core.derive_us_per_obj
}

var fullSizes = sizes{
	subs: 512, frame: 512, oracle: 200, scale: 1,
	pnnOps: 1000, knnOps: 10000, moveOps: 10000, pairs: 100, pushers: 64, derive: 200,
}

// The four workloads. Names are fixed; later issues refer to them.
// Sizes are the largest at which every phase — a Delete above all —
// still yields hundreds of samples inside one 20 s run; README.md has
// the measurements.
var workloads = []workload{
	{
		name:   "pnn-serve",
		why:    "the paper's Fig. 6 query over TCP: prob does ~99 % of a PNN, so a kernel gain must show here and index/wire changes must not",
		n:      8000,
		setups: 3,
		own:    []phase{pnnClosed, batchPNN},
	},
	{
		name:   "cold-open",
		why:    "same data and queries as pnn-serve served off an mmap'd v5 snapshot: isolates pager.FileStore/persist5; set-up is Open, not Build",
		n:      8000,
		mmap:   true,
		setups: 25,
		own:    []phase{pnnClosed, batchPNN},
	},
	{
		name:   "moving-knn",
		why:    "skewed data, no probability integration in its own phases: wire framing, server pipeline/sessions/push, core descent, rtree search",
		sigma:  2000,
		n:      4000,
		setups: 5,
		own:    []phase{moves, knnPipe},
	},
	{
		name:   "churn-mixed",
		why:    "writes beside reads on one index: derivation, COW page surgery, epoch reclamation, rtree insert/delete against reader latency",
		n:      4000,
		setups: 5,
		own:    []phase{churn},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// objects generates the workload's dataset, and pool the fresh objects
// its churn phase inserts (same distribution, ids assigned on insert).
func (w workload) objects(seed int64) (objs, pool []uvdiagram.Object) {
	gen := func(n int, seed int64) []uvdiagram.Object {
		cfg := datagen.Config{N: n, Side: domainSide, Diameter: datagen.DefaultDiameter, Seed: seed}
		if w.sigma > 0 {
			return datagen.Skewed(cfg, w.sigma)
		}
		return datagen.Uniform(cfg)
	}
	return gen(w.n, seed), gen(w.n, seed+1)
}
