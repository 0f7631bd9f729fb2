// Command uvclient queries a running uvserver.
//
// Usage:
//
//	uvclient [-addr localhost:7031] stats
//	uvclient [-addr ...] metrics
//	uvclient [-addr ...] pnn <x> <y>
//	uvclient [-addr ...] topk <x> <y> <k>
//	uvclient [-addr ...] knn <x> <y> <k>
//	uvclient [-addr ...] rnn <x> <y>
//	uvclient [-addr ...] area <id>
//	uvclient [-addr ...] parts <x0> <y0> <x1> <y1>
//	uvclient [-addr ...] insert <id> <x> <y> <r>
//	uvclient [-addr ...] delete <id>
//	uvclient [-addr ...] batchdel <id1> [<id2> ...]
//	uvclient [-addr ...] batchpnn <x1> <y1> [<x2> <y2> ...]
//	uvclient [-addr ...] batchknn <k> <x1> <y1> [<x2> <y2> ...]
//	uvclient [-addr ...] batchthresh <tau> <x1> <y1> [<x2> <y2> ...]
//	uvclient [-addr ...] bench <single|pipeline|batch> <queries>
//	uvclient [-addr ...] subscribe <x> <y> [moves] [step]
//
// subscribe opens a server-side moving-query subscription at (x, y),
// streams a deterministic random walk of fire-and-forget moves
// (default 100 moves of step 1% of the domain diagonal), prints every
// pushed answer delta as it arrives, and closes the session, reporting
// the server-side counters — in particular how many of the moves the
// safe circle absorbed without a recompute.
//
// batchpnn/batchknn/batchthresh send all points in one batch frame.
// bench generates deterministic random in-domain points and measures
// query throughput in the given mode: "single" issues one blocking
// round trip at a time, "pipeline" keeps a window of async calls in
// flight, "batch" ships the points in batch frames.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"uvdiagram"
	"uvdiagram/internal/server"
)

// printMetrics writes the server's flattened metric set as an aligned
// name/value table.
func printMetrics(w io.Writer, ms []server.Metric) {
	width := 0
	for _, m := range ms {
		width = max(width, len(m.Name))
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-*s  %g\n", width, m.Name, m.Value)
	}
}

func main() {
	addr := flag.String("addr", "localhost:7031", "server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fatal(fmt.Errorf("missing command; see -h"))
	}

	cli, err := server.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()

	switch cmd, rest := args[0], args[1:]; cmd {
	case "stats":
		st, err := cli.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("domain   %v\nobjects  %d\nnon-leaf %d\nleaves   %d\npages    %d\ndepth    %d\nentries  %d\nnext id  %d\n",
			st.Domain, st.Objects, st.NonLeaf, st.Leaves, st.Pages, st.MaxDepth, st.Entries, st.NextID)
		if st.Shards > 0 {
			fmt.Printf("shards   %d\n", st.Shards)
			if st.GridX > 0 {
				fmt.Printf("grid     %d×%d\n", st.GridX, st.GridY)
				fmt.Printf("x-cuts   %v\ny-cuts   %v\n", st.CutsX, st.CutsY)
			}
			for i, slack := range st.ShardSlack {
				if i < len(st.ShardLive) {
					fmt.Printf("  shard %-3d live %-6d slack %d\n", i, st.ShardLive[i], slack)
				} else {
					fmt.Printf("  shard %-3d slack %d\n", i, slack)
				}
			}
			if f := st.LoadImbalance(); f > 0 {
				fmt.Printf("load imbalance (max/mean) %.2f\n", f)
			}
		}

	case "metrics":
		ms, err := cli.Metrics()
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, ms)

	case "pnn":
		x, y := f64(rest, 0), f64(rest, 1)
		answers, err := cli.PNN(uvdiagram.Pt(x, y))
		if err != nil {
			fatal(err)
		}
		printAnswers(answers)

	case "topk":
		x, y, k := f64(rest, 0), f64(rest, 1), i(rest, 2)
		answers, err := cli.TopKPNN(uvdiagram.Pt(x, y), k)
		if err != nil {
			fatal(err)
		}
		printAnswers(answers)

	case "knn":
		x, y, k := f64(rest, 0), f64(rest, 1), i(rest, 2)
		ids, err := cli.PossibleKNN(uvdiagram.Pt(x, y), k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d possible %d-NN objects: %v\n", len(ids), k, ids)

	case "rnn":
		x, y := f64(rest, 0), f64(rest, 1)
		answers, err := cli.RNN(uvdiagram.Pt(x, y))
		if err != nil {
			fatal(err)
		}
		for _, a := range answers {
			fmt.Printf("object %d  p=%.4f\n", a.ID, a.Prob)
		}

	case "area":
		id := i(rest, 0)
		area, err := cli.CellArea(int32(id))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("UV-cell area of object %d ≈ %.1f\n", id, area)

	case "parts":
		r := uvdiagram.Rect{
			Min: uvdiagram.Pt(f64(rest, 0), f64(rest, 1)),
			Max: uvdiagram.Pt(f64(rest, 2), f64(rest, 3)),
		}
		parts, err := cli.Partitions(r)
		if err != nil {
			fatal(err)
		}
		for _, p := range parts {
			fmt.Printf("%v  count=%d  density=%.6f\n", p.Region, p.Count, p.Density)
		}

	case "insert":
		id, x, y, rad := i(rest, 0), f64(rest, 1), f64(rest, 2), f64(rest, 3)
		if err := cli.Insert(int32(id), x, y, rad, nil); err != nil {
			fatal(err)
		}
		fmt.Printf("inserted object %d\n", id)

	case "delete":
		id := i(rest, 0)
		if err := cli.Delete(int32(id)); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted object %d\n", id)

	case "batchdel":
		if len(rest) == 0 {
			fatal(fmt.Errorf("batchdel needs at least one id"))
		}
		ids := make([]int32, len(rest))
		for k := range rest {
			ids[k] = int32(i(rest, k))
		}
		if err := cli.BatchDelete(ids); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted %d objects\n", len(ids))

	case "batchpnn":
		lists, err := cli.BatchPNN(points(rest))
		if err != nil {
			fatal(err)
		}
		for i, answers := range lists {
			fmt.Printf("query %d:\n", i)
			printAnswers(answers)
		}

	case "batchknn":
		k := i(rest, 0)
		lists, err := cli.BatchPossibleKNN(points(rest[1:]), k)
		if err != nil {
			fatal(err)
		}
		for qi, ids := range lists {
			fmt.Printf("query %d: %d possible %d-NN objects: %v\n", qi, len(ids), k, ids)
		}

	case "batchthresh":
		tau := f64(rest, 0)
		lists, err := cli.BatchThresholdNN(points(rest[1:]), tau)
		if err != nil {
			fatal(err)
		}
		for qi, answers := range lists {
			fmt.Printf("query %d (p ≥ %.3f):\n", qi, tau)
			printAnswers(answers)
		}

	case "bench":
		if len(rest) < 2 {
			fatal(fmt.Errorf("usage: bench <single|pipeline|batch> <queries>"))
		}
		bench(cli, rest[0], i(rest, 1))

	case "subscribe":
		x, y := f64(rest, 0), f64(rest, 1)
		moves, step := 100, 0.0
		if len(rest) > 2 {
			moves = i(rest, 2)
		}
		if len(rest) > 3 {
			step = f64(rest, 3)
		}
		subscribe(cli, uvdiagram.Pt(x, y), moves, step)

	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// bench measures PNN throughput against the connected server.
func bench(cli *server.Client, mode string, n int) {
	st, err := cli.Stats()
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	qs := make([]uvdiagram.Point, n)
	for i := range qs {
		qs[i] = uvdiagram.Pt(
			st.Domain.Min.X+rng.Float64()*(st.Domain.Max.X-st.Domain.Min.X),
			st.Domain.Min.Y+rng.Float64()*(st.Domain.Max.Y-st.Domain.Min.Y),
		)
	}
	var answers int
	start := time.Now()
	switch mode {
	case "single":
		for _, q := range qs {
			as, err := cli.PNN(q)
			if err != nil {
				fatal(err)
			}
			answers += len(as)
		}
	case "pipeline":
		const window = 64
		done := make(chan *server.Call, window)
		inFlight := 0
		drain := func() {
			call := <-done
			as, err := server.PNNAnswers(call)
			if err != nil {
				fatal(err)
			}
			answers += len(as)
			inFlight--
		}
		for _, q := range qs {
			for inFlight >= window {
				drain()
			}
			cli.GoPNN(q, done)
			inFlight++
		}
		for inFlight > 0 {
			drain()
		}
	case "batch":
		const chunk = 1024
		for off := 0; off < len(qs); off += chunk {
			end := min(off+chunk, len(qs))
			lists, err := cli.BatchPNN(qs[off:end])
			if err != nil {
				fatal(err)
			}
			for _, as := range lists {
				answers += len(as)
			}
		}
	default:
		fatal(fmt.Errorf("unknown bench mode %q (single, pipeline, batch)", mode))
	}
	elapsed := time.Since(start)
	fmt.Printf("%s: %d PNN queries in %v  (%.0f queries/s, %d answers)\n",
		mode, n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), answers)
}

// subscribe runs one moving-query subscription: a random walk of
// fire-and-forget moves with every pushed delta printed as it arrives.
func subscribe(cli *server.Client, q uvdiagram.Point, moves int, step float64) {
	st, err := cli.Stats()
	if err != nil {
		fatal(err)
	}
	w, h := st.Domain.Max.X-st.Domain.Min.X, st.Domain.Max.Y-st.Domain.Min.Y
	if step <= 0 {
		step = 0.01 * math.Hypot(w, h)
	}
	sub, err := cli.Subscribe(q, func(d server.Delta) {
		if d.Err != nil {
			fmt.Printf("push #%d: session dropped: %v\n", d.Seq, d.Err)
			return
		}
		fmt.Printf("push #%d: +%v -%v  safe r=%.3f\n", d.Seq, d.Added, d.Removed, d.Safe.R)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("subscription %d at (%g, %g): %d initial answer(s) %v, safe r=%.3f\n",
		sub.ID(), q.X, q.Y, len(sub.AnswerIDs()), sub.AnswerIDs(), sub.SafeRegion().R)

	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	for k := 0; k < moves; k++ {
		q.X += (rng.Float64()*2 - 1) * step
		q.Y += (rng.Float64()*2 - 1) * step
		q.X = min(max(q.X, st.Domain.Min.X), st.Domain.Max.X)
		q.Y = min(max(q.Y, st.Domain.Min.Y), st.Domain.Max.Y)
		if err := sub.Move(q); err != nil {
			fatal(err)
		}
	}
	if err := cli.Ping(); err != nil { // delta flush barrier
		fatal(err)
	}
	elapsed := time.Since(start)
	stats, err := sub.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d moves in %v (%.0f moves/s): %d recomputes (%.1f%%), %d leaf reads, %d pushes\n",
		stats.Moves, elapsed.Round(time.Millisecond), float64(stats.Moves)/elapsed.Seconds(),
		stats.Recomputes, 100*float64(stats.Recomputes)/float64(max(stats.Moves, 1)),
		stats.IndexIOs, stats.Pushes)
	fmt.Printf("final answer set: %v\n", sub.AnswerIDs())
}

// points parses the trailing arguments as x y pairs.
func points(args []string) []uvdiagram.Point {
	if len(args) == 0 || len(args)%2 != 0 {
		fatal(fmt.Errorf("need a non-empty, even list of coordinates, got %d", len(args)))
	}
	qs := make([]uvdiagram.Point, len(args)/2)
	for i := range qs {
		qs[i] = uvdiagram.Pt(f64(args, 2*i), f64(args, 2*i+1))
	}
	return qs
}

func printAnswers(answers []uvdiagram.Answer) {
	fmt.Printf("%d answer object(s)\n", len(answers))
	for _, a := range answers {
		fmt.Printf("object %d  p=%.4f\n", a.ID, a.Prob)
	}
}

func f64(args []string, k int) float64 {
	if k >= len(args) {
		fatal(fmt.Errorf("missing argument %d", k+1))
	}
	v, err := strconv.ParseFloat(args[k], 64)
	if err != nil {
		fatal(err)
	}
	return v
}

func i(args []string, k int) int {
	if k >= len(args) {
		fatal(fmt.Errorf("missing argument %d", k+1))
	}
	v, err := strconv.Atoi(args[k])
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uvclient:", err)
	// Typed match for in-process callers; remote errors cross the wire
	// as flat "server: ..." strings, so fall back to the message.
	if errors.Is(err, uvdiagram.ErrStaleSnapshot) || strings.Contains(err.Error(), "index is stale") {
		fmt.Fprintln(os.Stderr, "uvclient: the server's order-k snapshot predates a mutation; re-issue the query after the server rebuilds it")
	}
	os.Exit(1)
}
