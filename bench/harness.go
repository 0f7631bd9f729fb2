package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/server"
	"uvdiagram/internal/uncertain"
)

// rig is one workload's database, loopback server and bookkeeping.
type rig struct {
	w    workload
	sz   sizes
	seed int64
	dir  string // scratch directory for snapshots, inside -out

	objs, pool []uvdiagram.Object
	built      uvdiagram.BuildStats // of the last Build in this process
	db         *uvdiagram.DB
	srv        *server.Server
	lis        net.Listener
	served     chan struct{}
	clients    []*server.Client // the pass's connections, dialled once: fresh ones are slow for their first requests

	live   []uvdiagram.Object // the harness's own ledger of the live population
	nextID int32
	res    *result

	timed map[string]*pool // the timed pass's metrics, gathered round by round
}

// pool gathers one timed metric over the rounds. The reported value is
// computed over all rounds' samples together — ops ÷ seconds for a rate,
// the median of the latencies otherwise — and the rounds' own values
// give the quartiles beside it.
type pool struct {
	rounds []float64
	ops    int
	secs   float64
	lats   []float64
}

func newRig(w workload, sz sizes, seed int64, dir string, res *result) *rig {
	g := &rig{w: w, sz: sz, seed: seed, dir: dir, res: res, timed: map[string]*pool{}}
	g.objs, g.pool = w.objects(seed)
	return g
}

var domain = uvdiagram.SquareDomain(domainSide)

// buildOptions are the library defaults but for the shard count: no
// CompactSlack, no maintainer, sequential derivation.
func buildOptions() *uvdiagram.Options { return &uvdiagram.Options{Shards: 4} }

// mmapOptions select the out-of-core page store for Open.
func mmapOptions() *uvdiagram.Options {
	opts := buildOptions()
	opts.Pager = "mmap"
	return opts
}

func (g *rig) snapshotPath() string { return filepath.Join(g.dir, g.w.name+".uv5") }

// setUp brings the workload's database and listener up `times` times
// and returns each set-up's duration; the last one stays up. For an
// mmap workload the snapshot is built and saved first, untimed, and a
// set-up is uvdiagram.Open; otherwise it is uvdiagram.Build.
func (g *rig) setUp(times int) ([]float64, error) {
	if g.w.mmap {
		db, err := uvdiagram.Build(g.objs, domain, buildOptions())
		if err != nil {
			return nil, fmt.Errorf("build for snapshot: %w", err)
		}
		g.built = db.BuildStats()
		if err := db.SaveSnapshot(g.snapshotPath()); err != nil {
			return nil, fmt.Errorf("save snapshot: %w", err)
		}
	}
	var durs []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			if err := g.tearDown(); err != nil {
				return nil, err
			}
			runtime.GC() // the previous database is garbage; do not bill its collection to this set-up
		}
		t0 := time.Now()
		var err error
		if g.w.mmap {
			g.db, err = uvdiagram.Open(g.snapshotPath(), mmapOptions())
		} else {
			g.db, err = uvdiagram.Build(g.objs, domain, buildOptions())
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := g.listen(); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if !g.w.mmap {
			g.built = g.db.BuildStats()
		}
	}
	g.db.DropCaches() // mmap: start from a cold page cache; heap: no-op
	g.live = append([]uvdiagram.Object(nil), g.objs...)
	g.nextID = int32(len(g.objs))
	return durs, nil
}

func (g *rig) listen() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	g.srv, g.lis = server.New(g.db, nil), lis
	g.served = make(chan struct{})
	go func(srv *server.Server, done chan struct{}) {
		defer close(done)
		_ = srv.Serve(lis) // always an error: the listener's close ends it
	}(g.srv, g.served)
	return nil
}

// tearDown closes the pass's connections, stops the server, waits for
// its goroutines and releases the database.
func (g *rig) tearDown() error {
	if g.srv == nil {
		return nil
	}
	for _, c := range g.clients {
		c.Close()
	}
	g.clients = nil
	// Server.Close closes only a listener Serve has already registered;
	// a set-up torn down at once may get here first. A second close of
	// the listener is a harmless error.
	_ = g.srv.Close()
	_ = g.lis.Close()
	<-g.served
	g.srv.Wait()
	g.srv = nil
	err := g.db.Close()
	g.db = nil
	return err
}

// dial opens the pass's client connections; tearDown closes them.
func (g *rig) dial() error {
	for len(g.clients) < conns {
		c, err := server.Dial(g.lis.Addr().String())
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		g.clients = append(g.clients, c)
	}
	return nil
}

// queryPoints is the seeded query stream of one goroutine: uniform over
// the domain, or for skewed data drawn from the data's own Gaussian —
// uniform points would mostly fall in its empty outskirts.
func (g *rig) queryPoints(stream int) []uvdiagram.Point {
	seed := g.seed + 100 + int64(stream)
	if g.w.sigma == 0 {
		return datagen.Queries(4096, domainSide, seed)
	}
	objs := datagen.Skewed(datagen.Config{N: 4096, Side: domainSide, Seed: seed}, g.w.sigma)
	qs := make([]uvdiagram.Point, len(objs))
	for i, o := range objs {
		qs[i] = o.Region.C
	}
	return qs
}

// closedLoop runs op on every client, each in its own goroutine, each
// sending its next request only when the previous one has returned,
// until dur is over. It returns the latencies and how long the loop
// really took, and counts calls and errors into the result.
func (g *rig) closedLoop(clients []*server.Client, dur time.Duration, op func(c *server.Client, stream, i int) error) (all []time.Duration, took time.Duration) {
	var wg sync.WaitGroup
	per := make([][]time.Duration, len(clients))
	errs := make([]int, len(clients))
	begin := time.Now()
	end := begin.Add(dur)
	for s, c := range clients {
		wg.Add(1)
		go func(s int, c *server.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) && len(per[s])+errs[s] > 0 {
					return // a phase shorter than one operation still measures one
				}
				if err := op(c, s, i); err != nil {
					errs[s]++
					continue
				}
				per[s] = append(per[s], time.Since(t0))
			}
		}(s, c)
	}
	wg.Wait()
	took = time.Since(begin)
	for s := range per {
		all = append(all, per[s]...)
		g.account(len(per[s]), errs[s], "closed-loop call")
	}
	return all, took
}

// account counts ok completed and errs failed operations into the result.
func (g *rig) account(ok, errs int, what string) {
	g.res.Attempted += int64(ok + errs)
	for i := 0; i < errs; i++ {
		g.res.fail("%s failed", what)
	}
}

func (g *rig) poolOf(name string) *pool {
	if g.timed[name] == nil {
		g.timed[name] = &pool{}
	}
	return g.timed[name]
}

// noteRate records that a round completed ops operations in dur.
func (g *rig) noteRate(name string, ops int, dur time.Duration) {
	p := g.poolOf(name)
	p.rounds = append(p.rounds, float64(ops)/dur.Seconds())
	p.ops += ops
	p.secs += dur.Seconds()
}

// noteLats records a round's latencies.
func (g *rig) noteLats(name string, xs []float64) {
	p := g.poolOf(name)
	p.rounds = append(p.rounds, median(xs))
	p.lats = append(p.lats, xs...)
}

// metric summarises the pool after the last round.
func (p *pool) metric() metric {
	m := of(p.rounds)
	m.Rounds = p.rounds
	if p.lats != nil {
		m.Value, m.N = median(p.lats), len(p.lats)
	} else {
		m.Value, m.N = float64(p.ops)/p.secs, p.ops
	}
	return m
}

// runPNNClosed is phase (a) of pnn-serve: closed loop, one connection
// per core, single OpPNN at uniform points.
func (g *rig) runPNNClosed(round int, dur time.Duration) error {
	qs := [][]uvdiagram.Point{g.queryPoints(0), g.queryPoints(1)}
	samples, took := g.closedLoop(g.clients, dur, func(c *server.Client, s, i int) error {
		_, err := c.PNN(qs[s][(round*977+i)%len(qs[s])])
		return err
	})
	g.notePNN(samples, took)
	return nil
}

func (g *rig) notePNN(samples []time.Duration, dur time.Duration) {
	g.noteRate("pnn_qps", len(samples), dur)
	g.noteLats("pnn_p50_ms", lats(samples, time.Millisecond)) // pnn_p99_ms reads the same pool
}

// openLoop sends single OpPNN requests at seeded Poisson arrival times
// of the given rate, whatever the server's pace, round-robin over the
// connections. Each request is timed from the moment it was due. It
// returns the latency samples and how late, in ms, the generator sent
// each request.
func (g *rig) openLoop(dur time.Duration, ratePerSec float64) (lat []time.Duration, lag []float64) {
	clients := g.clients
	rng := rand.New(rand.NewSource(g.seed + 7))
	var due []time.Duration
	for t := time.Duration(0); t < dur; t += time.Duration(rng.ExpFloat64() / ratePerSec * float64(time.Second)) {
		due = append(due, t)
	}
	qs := g.queryPoints(2)

	// One collector per connection: responses come back in request
	// order, so the i-th completion on a connection belongs to the i-th
	// due time sent on it. Channels hold the whole schedule, so neither
	// the sender nor the client's read loop ever blocks on them.
	type conn struct {
		done chan *server.Call
		dues chan time.Duration
		out  []time.Duration
		errs int
	}
	cs := make([]*conn, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &conn{done: make(chan *server.Call, len(due)), dues: make(chan time.Duration, len(due))}
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for d := range c.dues {
				call := <-c.done
				if call.Err != nil {
					c.errs++
				} else {
					c.out = append(c.out, time.Since(start)-d)
				}
			}
		}(cs[i])
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		lag = append(lag, float64(time.Since(start)-d)/float64(time.Millisecond))
		c := i % len(clients)
		cs[c].dues <- d
		clients[c].GoPNN(qs[i%len(qs)], cs[c].done)
	}
	for _, c := range cs {
		close(c.dues)
	}
	wg.Wait()
	for _, c := range cs {
		lat = append(lat, c.out...)
		g.account(len(c.out), c.errs, "open-loop call")
	}
	return lat, lag
}

// runBatch is phase (c): BatchPNN frames on one connection, closed loop.
// A frame takes a good share of a round, so the rate is points over the
// time the frames really took, not over the phase's length.
func (g *rig) runBatch(round int, dur time.Duration) error {
	qs := g.queryPoints(3)
	frame := g.sz.frame
	samples, _ := g.closedLoop(g.clients[:1], dur, func(c *server.Client, _, i int) error {
		off := ((round*31 + i) * frame) % (len(qs) - frame + 1)
		_, err := c.BatchPNN(qs[off : off+frame])
		return err
	})
	var busy time.Duration
	for _, d := range samples {
		busy += d
	}
	g.noteRate("batch_pnn_qps", len(samples)*frame, busy)
	return nil
}

// walker is one subscription on its random walk.
type walker struct {
	sub *server.Subscription
	pos uvdiagram.Point
}

// subscribe opens n subscriptions on c at the centres of seeded random
// objects — the data's own distribution — and waits until the server
// has registered them all.
func (g *rig) subscribe(c *server.Client, n int, rng *rand.Rand, onDelta func(server.Delta)) ([]walker, error) {
	ws := make([]walker, n)
	for i := range ws {
		p := g.objs[rng.Intn(len(g.objs))].Region.C
		sub, err := c.Subscribe(p, onDelta)
		if err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		ws[i] = walker{sub: sub, pos: p}
	}
	return ws, c.Ping()
}

// step moves p by moveStep in a seeded random direction, staying
// inside the domain.
func step(p uvdiagram.Point, rng *rand.Rand) uvdiagram.Point {
	a := rng.Float64() * 2 * math.Pi
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), domainSide) }
	return uvdiagram.Pt(clamp(p.X+moveStep*math.Cos(a)), clamp(p.Y+moveStep*math.Sin(a)))
}

// runMoves is phase (a) of moving-knn: subscriptions spread over the
// connections, each on a random walk; moves are fire-and-forget, one
// Ping per sweep is the barrier that makes the server's work count.
func (g *rig) runMoves(round int, dur time.Duration) error {
	clients := g.clients
	walkers := make([][]walker, len(clients))
	rngs := make([]*rand.Rand, len(clients))
	for i, c := range clients {
		rngs[i] = rand.New(rand.NewSource(g.seed + 20 + int64(round*conns+i)))
		var err error
		if walkers[i], err = g.subscribe(c, g.sz.subs/len(clients), rngs[i], nil); err != nil {
			return err
		}
	}
	// One sample per sweep: every subscription of the connection moved
	// once and the barrier came back.
	sweeps, took := g.closedLoop(clients, dur, func(c *server.Client, s, _ int) error {
		for i := range walkers[s] {
			w := &walkers[s][i]
			w.pos = step(w.pos, rngs[s])
			if err := w.sub.Move(w.pos); err != nil {
				return err
			}
		}
		return c.Ping()
	})
	g.noteRate("moves_per_s", len(sweeps)*(g.sz.subs/len(clients)), took)

	// Oracle: after the last barrier every session's reconstructed
	// answer set must equal the brute-force answer set at its position.
	for s := range walkers {
		for _, w := range walkers[s] {
			g.res.Attempted++
			if err := w.sub.Err(); err != nil {
				g.res.fail("subscription dropped: %v", err)
				continue
			}
			if want, got := g.bruteIDs(w.pos), w.sub.AnswerIDs(); !equalIDs(want, got) {
				g.res.fail("subscription at %v: answer set %v, oracle %v", w.pos, got, want)
			}
			if _, err := w.sub.Close(); err != nil {
				g.res.fail("unsubscribe: %v", err)
			}
		}
	}
	return nil
}

// runKNNPipe is phase (b) of moving-knn: each connection keeps
// knnWindow OpPossibleKNN requests in flight.
func (g *rig) runKNNPipe(round int, dur time.Duration) error {
	clients := g.clients
	qs := make([][]uvdiagram.Point, len(clients))
	for s := range qs {
		qs[s] = g.queryPoints(4 + s)
	}
	begin := time.Now()
	end := begin.Add(dur)
	oks := make([]int, len(clients))
	errs := make([]int, len(clients))
	var wg sync.WaitGroup
	for s, c := range clients {
		wg.Add(1)
		go func(s int, c *server.Client) {
			defer wg.Done()
			done := make(chan *server.Call, knnWindow)
			inFlight := 0
			drain := func() {
				call := <-done
				inFlight--
				if _, err := server.PossibleKNNIDs(call); err != nil {
					errs[s]++
					return
				}
				oks[s]++
			}
			for i := round * 977; time.Now().Before(end); i++ {
				for inFlight >= knnWindow {
					drain()
				}
				c.GoPossibleKNN(qs[s][i%len(qs[s])], knnK, done)
				inFlight++
			}
			for inFlight > 0 {
				drain()
			}
		}(s, c)
	}
	wg.Wait()
	took := time.Since(begin)
	total := 0
	for s := range oks {
		total += oks[s]
		g.account(oks[s], errs[s], "pipelined k-NN call")
	}
	g.noteRate("knn_qps", total, took)
	return nil
}

// runChurn is churn-mixed's traffic: a writer connection alternating
// Delete(random live id) and Insert(fresh object), closed loop, beside
// a reader connection in a closed loop of single OpPNN until the writer
// stops. The ledger follows every acknowledged write. A write's cost
// grows with the writes before it (slack, stripped cr-sets), so the
// writer gets an op count, not a time: dur at churnPairsPerSec. Every
// run of one seed then takes the database through the same states. It
// returns the three operations' latencies and how long the writer ran.
func (g *rig) runChurn(round int, dur time.Duration) (dels, inss, reads []time.Duration, took time.Duration) {
	writer, reader := g.clients[0], g.clients[1]
	pairs := max(1, int(churnPairsPerSec*dur.Seconds()))
	t0 := time.Now()

	var stop atomic.Bool
	readErrs := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qs := g.queryPoints(7)
		for i := round * 977; !stop.Load() || len(reads)+readErrs == 0; i++ {
			t0 := time.Now()
			if _, err := reader.PNN(qs[i%len(qs)]); err != nil {
				readErrs++
				continue
			}
			reads = append(reads, time.Since(t0))
		}
	}()

	rng := rand.New(rand.NewSource(g.seed + 30 + int64(round)))
	timed := func(out *[]time.Duration, what string, f func() error) {
		t0 := time.Now()
		err := f()
		g.res.Attempted++
		if err != nil {
			g.res.fail("%s: %v", what, err)
			return
		}
		*out = append(*out, time.Since(t0))
	}
	for i := 0; i < pairs; i++ {
		v := rng.Intn(len(g.live))
		victim := g.live[v]
		timed(&dels, "delete", func() error { return writer.Delete(victim.ID) })
		fresh := g.pool[int(g.nextID)%len(g.pool)]
		fresh.ID = g.nextID
		timed(&inss, "insert", func() error {
			return writer.Insert(fresh.ID, fresh.Region.C.X, fresh.Region.C.Y, fresh.Region.R, fresh.PDF.Weights())
		})
		// The ledger assumes both writes landed; if one did not, the
		// post-churn Len and PNN checks report the divergence as well.
		g.live[v] = g.wireObject(fresh)
		g.nextID++
	}
	took = time.Since(t0)
	stop.Store(true)
	wg.Wait()
	g.account(len(reads), readErrs, "reader PNN during churn")
	return dels, inss, reads, took
}

// wireObject is o as the server reconstructs it from an Insert frame:
// the pdf is renormalised from its weights on arrival.
func (g *rig) wireObject(o uvdiagram.Object) uvdiagram.Object {
	pdf, err := uncertain.NewHistogramPDF(o.PDF.Weights())
	if err != nil {
		panic(err) // weights of a valid pdf
	}
	return uvdiagram.NewObject(o.ID, o.Region.C.X, o.Region.C.Y, o.Region.R, pdf)
}

// rssMB reads the process's resident set after returning freed memory
// to the OS.
func rssMB() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("rss: no VmRSS in /proc/self/status")
}

// rounds is how many times a timed pass cycles through its phases, so
// that every metric samples the whole length of the run and not one
// stretch of it: the host's speed wanders by several percent within
// seconds. One more round runs first and is discarded as warm-up.
const rounds = 5

// timedPass measures the end-to-end metrics, tracing off.
func (g *rig) timedPass(seconds float64) error {
	durs, err := g.setUp(g.w.setups)
	if err != nil {
		return err
	}
	defer g.tearDown()
	g.res.set("setup_s", of(durs))

	// The freshly built database's snapshot: the file cold-open serves.
	// Its size is a property of the format and the seed alone.
	if !g.w.mmap {
		if err := g.db.SaveSnapshot(g.snapshotPath()); err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
	}
	fi, err := os.Stat(g.snapshotPath())
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	g.res.set("snapshot_bytes_per_obj", reading(float64(fi.Size())/float64(len(g.objs)), 1))

	if err := g.dial(); err != nil {
		return err
	}
	phases := [numPhases]func(round int, dur time.Duration) error{
		pnnClosed: g.runPNNClosed,
		batchPNN:  g.runBatch,
		moves:     g.runMoves,
		knnPipe:   g.runKNNPipe,
		churn: func(round int, dur time.Duration) error {
			_, inss, reads, took := g.runChurn(round, dur)
			g.noteLats("insert_p50_ms", lats(inss, time.Millisecond))
			if g.w.readerIsPNN() {
				g.notePNN(reads, took)
			}
			return nil
		},
	}
	round := time.Duration(seconds / (rounds + 1) * float64(time.Second))
	for r := 0; r <= rounds; r++ {
		for p, run := range phases {
			if share := g.w.share(phase(p)); share > 0 {
				if err := run(r, time.Duration(share*float64(round))); err != nil {
					return err
				}
			}
		}
		if r == 0 {
			g.timed = map[string]*pool{} // the warm-up round: caches filled, heap grown, connections used
		}
	}
	for name, p := range g.timed {
		g.res.set(name, p.metric())
	}
	g.res.set("pnn_p99_ms", tail(g.poolOf("pnn_p50_ms").lats))
	if err := g.verify(); err != nil {
		return err
	}

	rss, err := rssMB()
	if err != nil {
		return err
	}
	g.res.set("rss_mb", reading(rss, 1))
	return nil
}

// saveSnapshot writes the live database as a v5 snapshot and returns
// the file, its size and how long the save took.
func (g *rig) saveSnapshot() (path string, size int64, took time.Duration, err error) {
	path = filepath.Join(g.dir, g.w.name+"-end.uv5")
	t0 := time.Now()
	if err := g.db.SaveSnapshot(path); err != nil {
		return "", 0, 0, fmt.Errorf("save snapshot: %w", err)
	}
	took = time.Since(t0)
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, 0, fmt.Errorf("save snapshot: %w", err)
	}
	return path, fi.Size(), took, nil
}
