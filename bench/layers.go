package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uvdiagram"
	"uvdiagram/internal/core"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/server"
	"uvdiagram/internal/wire"
)

// tracedPass yields the per-layer metrics. First, on one goroutine and
// one connection, fixed counts of each operation run over the wire
// under a root span and are replayed in-process piece by piece; the
// counts read there repeat exactly between runs of one commit. Then
// come direct loops into single layers, the write path, and last the
// concurrent phases, whose op counts vary.
func (g *rig) tracedPass(seconds float64, tracePath string) error {
	if _, err := g.setUp(1); err != nil {
		return err
	}
	defer g.tearDown()
	wall0, cpu0 := time.Now(), cpuTime()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	if err := g.dial(); err != nil {
		return err
	}
	clients := g.clients
	t := &traced{rig: g, tr: newTracer(), c: clients[0], qs: g.queryPoints(10)}
	count := func(full int) int { return max(1, int(float64(full)*g.sz.scale*seconds/baseSecs)) }
	nPNN := count(g.sz.pnnOps)
	if err := t.pnn(nPNN); err != nil {
		return err
	}
	if err := t.knn(count(g.sz.knnOps), nPNN); err != nil {
		return err
	}
	if err := t.moves(count(g.sz.moveOps)); err != nil {
		return err
	}
	g.res.set("wire.req_bytes_per_op", per(int64(t.reqBytes), t.reqs))
	if err := t.batch(); err != nil {
		return err
	}
	g.directLoops(t.qs)
	if err := g.tracedChurn(t.tr, t.c, clients[1], count(g.sz.pairs)); err != nil {
		return err
	}
	g.res.set("pager.tail_mb", reading(float64(g.db.BufferPoolStats().TailBytes)/mb, 1))

	// The server's own counters of the fixed-count part, before traffic
	// of varying length touches them.
	mm := g.srv.MetricsMap()
	ops := 0.0
	for name, v := range mm {
		if strings.HasPrefix(name, "ops.") && name != "ops.errors" {
			ops += v
		}
	}
	g.res.set("server.ops_total", reading(ops, 1))
	g.res.set("server.ops_errors", reading(mm["ops.errors"], 1))
	g.res.set("server.push_deltas", reading(mm["push.deltas"], 1))
	// The histogram's own p50 is a power-of-two bucket edge; the mean is not.
	g.res.set("server.push_flush_mean_us", reading(mm["push.flush.sum_ns"]/mm["push.flush.count"]/1e3, int(mm["push.flush.count"])))

	if err := g.persistence(); err != nil {
		return err
	}
	if err := t.tr.write(tracePath); err != nil {
		return err
	}
	if err := g.validity(seconds); err != nil {
		return err
	}
	if err := g.verify(); err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	wall := time.Since(wall0)
	g.res.set("bench.cpu_util", reading((cpuTime()-cpu0).Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 1))
	g.res.set("bench.gc_pause_ms", reading(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms1.NumGC-ms0.NumGC)))
	return nil
}

const mb = 1 << 20

// traced is what the fixed-count reads of the traced pass share.
type traced struct {
	*rig
	tr *tracer
	c  *server.Client
	qs []uvdiagram.Point

	reqBytes, reqs int // request frames replayed, for wire.req_bytes_per_op
}

func tracedErr(what string, err error) error { return fmt.Errorf("traced %s: %w", what, err) }

// us is the median duration, in µs, of op's spans called name.
func (t *traced) us(op, name string) float64 { return t.tr.med(op, name, time.Microsecond) }

// pnn traces n single PNN queries.
func (t *traced) pnn(n int) error {
	var sum uvdiagram.QueryStats
	respBytes := 0
	bp0 := t.db.BufferPoolStats()
	for i := 0; i < n; i++ {
		q := t.qs[i%len(t.qs)]
		var callErr error
		err := t.tr.request("pnn", func() error { _, err := t.c.PNN(q); return err }, func() []piece {
			reqEnc, reqDec, size := framed("req", wire.OpPNN,
				func(b *wire.Buffer) { b.F64(q.X); b.F64(q.Y) },
				func(r *wire.Reader) { r.F64(); r.F64() })
			t.reqBytes, t.reqs = t.reqBytes+size, t.reqs+1
			var ans []uvdiagram.Answer
			var st uvdiagram.QueryStats
			call := timeIt("db.call", func() { ans, st, callErr = t.db.PNN(q) })
			call.parts = []piece{{name: "core.traverse", d: st.TraverseDur}, {name: "uncertain.retrieve", d: st.RetrieveDur}, {name: "prob.integrate", d: st.ProbDur}}
			sum.IndexIOs += st.IndexIOs
			sum.ObjectIOs += st.ObjectIOs
			sum.LeafEntries += st.LeafEntries
			sum.Candidates += st.Candidates
			sum.Depth += st.Depth
			sum.TraverseDur += st.TraverseDur
			sum.RetrieveDur += st.RetrieveDur
			sum.ProbDur += st.ProbDur
			respEnc, respDec, size := framed("resp", wire.StatusOK,
				func(b *wire.Buffer) {
					b.U32(uint32(len(ans)))
					for _, a := range ans {
						b.I32(a.ID)
						b.F64(a.Prob)
					}
				},
				func(r *wire.Reader) {
					for n := r.U32(); n > 0; n-- {
						r.I32()
						r.F64()
					}
				})
			respBytes += size
			return []piece{reqEnc, reqDec, call, respEnc, respDec}
		})
		if err = firstErr(err, callErr); err != nil {
			return tracedErr("PNN", err)
		}
	}
	bp1 := t.db.BufferPoolStats()
	res := t.res
	res.Attempted += int64(n)
	res.set("db.pnn_us", reading(t.us("pnn", "db.call"), n))
	res.set("prob.integrate_us", reading(t.us("pnn", "prob.integrate"), n))
	res.set("core.traverse_us", reading(t.us("pnn", "core.traverse"), n))
	res.set("uncertain.retrieve_us", reading(t.us("pnn", "uncertain.retrieve"), n))
	res.set("prob.share", reading(float64(sum.ProbDur)/float64(sum.Total()), n))
	res.set("prob.us_per_candidate", reading(float64(sum.ProbDur)/float64(time.Microsecond)/float64(sum.Candidates), sum.Candidates))
	res.set("core.depth", per(int64(sum.Depth), n))
	res.set("core.leaf_entries", per(int64(sum.LeafEntries), n))
	res.set("core.candidates", per(int64(sum.Candidates), n))
	res.set("core.index_ios", per(sum.IndexIOs, n))
	res.set("uncertain.object_ios", per(sum.ObjectIOs, n))
	// ProbsScratch: 200 steps × 2 CDFs × candidates × 20 rings × 2 lenses.
	res.set("prob.lens_calls_per_query", per(200*2*20*2*int64(sum.Candidates), n))
	res.set("wire.resp_bytes_per_pnn", per(int64(respBytes), n))
	res.set("server.pnn_overhead_us", reading(t.us("pnn", "request")-t.us("pnn", "db.call"), n))
	res.set("server.other_share_pnn", reading(t.us("pnn", "server.other")/t.us("pnn", "request"), n))
	// Every PNN ran twice: once behind the server, once in the replay.
	res.set("pager.reads_per_query", per(bp1.PagerReads-bp0.PagerReads, 2*n))
	return nil
}

// knn traces n single possible-k-NN queries, starting off points into
// the query stream.
func (t *traced) knn(n, off int) error {
	for i := 0; i < n; i++ {
		q := t.qs[(off+i)%len(t.qs)]
		var callErr error
		err := t.tr.request("knn", func() error { _, err := t.c.PossibleKNN(q, knnK); return err }, func() []piece {
			reqEnc, reqDec, size := framed("req", wire.OpPossibleKNN,
				func(b *wire.Buffer) { b.F64(q.X); b.F64(q.Y); b.U32(knnK) },
				func(r *wire.Reader) { r.F64(); r.F64(); r.U32() })
			t.reqBytes, t.reqs = t.reqBytes+size, t.reqs+1
			var ids []int32
			call := timeIt("db.call", func() { ids, callErr = t.db.PossibleKNN(q, knnK) })
			respEnc, respDec, _ := framed("resp", wire.StatusOK,
				func(b *wire.Buffer) {
					b.U32(uint32(len(ids)))
					for _, id := range ids {
						b.I32(id)
					}
				},
				func(r *wire.Reader) {
					for n := r.U32(); n > 0; n-- {
						r.I32()
					}
				})
			return []piece{reqEnc, reqDec, call, respEnc, respDec}
		})
		if err = firstErr(err, callErr); err != nil {
			return tracedErr("PossibleKNN", err)
		}
	}
	t.res.Attempted += int64(n)
	t.res.set("db.knn_us", reading(t.us("knn", "db.call"), n))
	t.res.set("server.knn_overhead_us", reading(t.us("knn", "request")-t.us("knn", "db.call"), n))
	t.res.set("server.other_share_knn", reading(t.us("knn", "server.other")/t.us("knn", "request"), n))
	return nil
}

// moves traces n subscription moves, round-robin over a few sessions. A
// request is a fire-and-forget Move plus the Ping that makes the
// server's evaluation observable; its db.call is the same move on an
// in-process session at the same position.
func (t *traced) moves(n int) error {
	rng := rand.New(rand.NewSource(t.seed + 50))
	walkers, err := t.subscribe(t.c, min(t.sz.pushers, n), rng, nil)
	if err != nil {
		return err
	}
	mirrors := make([]*uvdiagram.ContinuousPNN, len(walkers))
	for i, w := range walkers {
		if mirrors[i], err = t.db.NewContinuousPNN(w.pos); err != nil {
			return tracedErr("NewContinuousPNN", err)
		}
	}
	for i := 0; i < n; i++ {
		w, mirror := &walkers[i%len(walkers)], mirrors[i%len(walkers)]
		w.pos = step(w.pos, rng)
		var callErr error
		err := t.tr.request("move", func() error {
			if err := w.sub.Move(w.pos); err != nil {
				return err
			}
			return t.c.Ping()
		}, func() []piece {
			reqEnc, reqDec, size := framed("req", wire.OpMove,
				func(b *wire.Buffer) { b.U64(w.sub.ID()); b.F64(w.pos.X); b.F64(w.pos.Y) },
				func(r *wire.Reader) { r.U64(); r.F64(); r.F64() })
			t.reqBytes, t.reqs = t.reqBytes+size, t.reqs+1
			call := timeIt("db.call", func() { _, _, callErr = mirror.Move(w.pos) })
			ping := timeIt("server.ping_barrier", func() { callErr = firstErr(callErr, t.c.Ping()) })
			return []piece{reqEnc, reqDec, call, ping}
		})
		if err = firstErr(err, callErr); err != nil {
			return tracedErr("Move", err)
		}
	}
	t.res.Attempted += int64(n)
	var subs server.SubscriptionStats
	for _, w := range walkers {
		st, err := w.sub.Close()
		if err != nil {
			return tracedErr("unsubscribe", err)
		}
		subs.Moves += st.Moves
		subs.Recomputes += st.Recomputes
		subs.IndexIOs += st.IndexIOs
	}
	t.res.set("server.sub_recompute_rate", per(int64(subs.Recomputes), int(subs.Moves)))
	t.res.set("server.sub_index_ios_per_move", per(int64(subs.IndexIOs), int(subs.Moves)))
	return nil
}

// batch sends one batch frame of each kind over the wire, through the
// server's leaf caches (UV-index and R-tree), times the same points
// straight into the batch engine, and reads the cache and pager gauges.
func (t *traced) batch() error {
	frame := t.qs[:t.sz.frame]
	if _, err := t.c.BatchPNN(frame); err != nil {
		return tracedErr("BatchPNN", err)
	}
	if _, err := t.c.BatchPossibleKNN(frame, knnK); err != nil {
		return tracedErr("BatchPossibleKNN", err)
	}
	t.res.Attempted += 2
	t0 := time.Now()
	if _, err := t.db.BatchNN(frame, nil); err != nil {
		return tracedErr("BatchNN", err)
	}
	batchUS := float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(frame))
	t.res.set("db.batch_pnn_us_per_query", reading(batchUS, len(frame)))
	t.res.set("db.batch_speedup", reading(t.us("pnn", "db.call")/batchUS, len(frame)))

	bp := t.db.BufferPoolStats()
	ratio := func(hits, misses int64) metric {
		if hits+misses == 0 {
			return reading(0, 0)
		}
		return reading(float64(hits)/float64(hits+misses), int(hits+misses))
	}
	t.res.set("lru.leaf_hit_ratio", ratio(bp.LeafHits, bp.LeafMisses))
	t.res.set("lru.rtree_hit_ratio", ratio(bp.RTreeHits, bp.RTreeMisses))
	t.res.set("lru.evictions", reading(float64(bp.LeafEvictions+bp.RTreeEvictions), 1))
	t.res.set("pager.mapped_mb", reading(float64(bp.MappedBytes)/mb, 1))
	t.res.set("pager.resident_mb", reading(float64(bp.ResidentBytes)/mb, 1))
	return nil
}

// per is a total spread over the n operations that ran it up.
func per(total int64, n int) metric { return reading(float64(total)/float64(n), n) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// blocks runs f n times in five timed blocks and reports the median
// block's mean time per call in unit — for calls too short to bracket
// one by one.
func blocks(n int, unit time.Duration, f func(i int)) metric {
	const k = 5
	each := max(1, n/k)
	vals := make([]float64, k)
	for b := range vals {
		t0 := time.Now()
		for i := 0; i < each; i++ {
			f(b*each + i)
		}
		vals[b] = float64(time.Since(t0)) / float64(each) / float64(unit)
	}
	m := of(vals)
	m.N = k * each
	return m
}

// sink keeps the compiler from discarding the direct loops' results.
var sink float64

// directLoops calls single layers' public functions on inputs drawn
// from the workload's own data.
func (g *rig) directLoops(qs []uvdiagram.Point) {
	n := int(20000 * g.sz.scale)
	rng := rand.New(rand.NewSource(g.seed + 60))

	// prob / geom: the kernel's two inner calls, on the nearest object
	// of each query point at a radius inside its distance range.
	type arg struct {
		o uvdiagram.Object
		q uvdiagram.Point
		r float64
	}
	args := make([]arg, 256)
	for i := range args {
		q := qs[i]
		o := g.objs[uvdiagram.AnswerSet(g.objs, q)[0]]
		d := q.Dist(o.Region.C)
		args[i] = arg{o: o, q: q, r: d + (rng.Float64()*2-1)*o.Region.R*0.9}
	}
	g.res.set("prob.distance_cdf_ns", blocks(n, time.Nanosecond, func(i int) {
		a := &args[i%len(args)]
		sink += prob.DistanceCDF(a.o, a.q, a.r)
	}))
	g.res.set("geom.lens_area_ns", blocks(n, time.Nanosecond, func(i int) {
		a := &args[i%len(args)]
		sink += geom.LensArea(geom.Circle{C: a.q, R: a.r}, geom.Circle{C: a.o.Region.C, R: a.o.Region.R * float64(i%20+1) / 20})
	}))
	g.res.set("uncertain.fetch_ns", blocks(n, time.Nanosecond, func(i int) {
		o, err := g.db.Object(int32(i * 7919 % len(g.objs)))
		if err != nil {
			panic(err) // ids below the build size are live until the churn
		}
		sink += o.Region.R
	}))

	// core: one object's derivation (Algorithm 2), and a subscription's
	// in-process move.
	tree := g.db.RTree()
	bo := core.DefaultBuildOptions()
	sc := core.NewDeriveScratch()
	g.res.set("core.derive_us_per_obj", blocks(g.sz.derive, time.Microsecond, func(i int) {
		o := g.objs[i*7919%len(g.objs)]
		sink += float64(len(core.DeriveCR(tree, o, g.objs, domain, bo.SeedK, bo.SeedSectors, bo.RegionSamples, sc)))
	}))
	pos := g.objs[0].Region.C
	sess, err := g.db.NewContinuousPNN(pos)
	if err != nil {
		panic(err) // an object's centre is inside the domain
	}
	g.res.set("core.continuous_move_ns", blocks(n, time.Nanosecond, func(int) {
		pos = step(pos, rng)
		if _, _, err := sess.Move(pos); err != nil {
			panic(err) // step keeps pos inside the domain
		}
	}))

	// rtree: the possible-k-NN candidate search and the incremental
	// browse that seeds every derivation.
	g.res.set("rtree.knn_candidates_us", blocks(n/4, time.Microsecond, func(i int) {
		cands, _ := tree.KNNCandidates(qs[i%len(qs)], knnK)
		sink += float64(len(cands))
	}))
	g.res.set("rtree.nn_browse_us_per_300", blocks(n/40, time.Microsecond, func(i int) {
		it := tree.NewNNIterator(qs[i%len(qs)])
		for k := 0; k < 300; k++ {
			nb, ok := it.Next()
			if !ok {
				break
			}
			sink += nb.DistMin
		}
	}))
	g.res.set("rtree.height", reading(float64(tree.Height()), 1))

	// wire: a PNN response's framing round trip, no parsing.
	var b wire.Buffer
	b.U32(3)
	for i := 0; i < 3; i++ {
		b.I32(int32(i))
		b.F64(1.0 / 3)
	}
	payload := b.Bytes()
	var sock bytes.Buffer
	g.res.set("wire.frame_roundtrip_ns", blocks(n, time.Nanosecond, func(int) {
		if err := wire.WriteFrame(&sock, wire.StatusOK, payload); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
		_, got, err := wire.ReadFrame(&sock)
		if err != nil {
			panic(err) // the frame was written two lines up
		}
		sink += float64(len(got))
	}))

	// epoch: the reader-side cost every query pays.
	dom := epoch.NewDomain()
	g.res.set("epoch.pin_unpin_ns", blocks(n, time.Nanosecond, func(int) { dom.Unpin(dom.Pin()) }))

	// Build and index shape.
	bs, is := g.built, g.db.IndexStats()
	ms := func(d time.Duration) metric { return reading(float64(d)/float64(time.Millisecond), 1) }
	g.res.set("core.build_seed_ms", ms(bs.SeedDur))
	g.res.set("core.build_prune_ms", ms(bs.PruneDur))
	g.res.set("core.build_index_ms", ms(bs.IndexDur))
	g.res.set("core.avg_cr", reading(bs.AvgCR(), bs.N))
	g.res.set("db.build_objs_per_s", reading(float64(bs.N)/bs.TotalDur.Seconds(), bs.N))
	g.res.set("core.leaves", reading(float64(is.Leaves), 1))
	g.res.set("core.pages", reading(float64(is.Pages), 1))
	g.res.set("core.avg_leaf_entries", reading(is.AvgEntries, is.Leaves))
}

// tracedChurn runs 2×pairs delete/insert pairs on one goroutine: delete
// a seeded victim, insert the same object back under a fresh id, so the
// population's geometry never changes and every count repeats. A write
// cannot be replayed — it changes the database — so the pairs alternate:
// one over the wire under a root span whose children are its framing,
// the next straight into the DB as a "db.call" span of its own, which is
// where the wire write's database time is read from. Live subscriptions
// sit at the first wire victims' centres on a second connection, so
// those writes are known to push deltas.
func (g *rig) tracedChurn(tr *tracer, c, pushConn *server.Client, pairs int) error {
	rng := rand.New(rand.NewSource(g.seed + 70))
	victims := make([]int, 2*pairs)
	for i := range victims {
		victims[i] = rng.Intn(len(g.live))
	}

	var issued atomic.Int64 // when the wire write in flight was sent, ns since t0
	t0 := time.Now()
	var mu sync.Mutex
	var pushLat []float64
	onDelta := func(server.Delta) {
		d := float64(time.Since(t0)-time.Duration(issued.Load())) / float64(time.Microsecond)
		mu.Lock()
		pushLat = append(pushLat, d)
		mu.Unlock()
	}
	var subs []*server.Subscription
	for i := 0; i < len(victims) && len(subs) < g.sz.pushers; i += 2 {
		sub, err := pushConn.Subscribe(g.live[victims[i]].Region.C, onDelta)
		if err != nil {
			return tracedErr("subscribe", err)
		}
		subs = append(subs, sub)
	}
	if err := pushConn.Ping(); err != nil {
		return tracedErr("ping", err)
	}

	empty := func(*wire.Buffer) {}
	none := func(*wire.Reader) {}
	ms0, bp0 := g.db.MutationStats(), g.db.BufferPoolStats()
	for i, v := range victims {
		victim := g.live[v]
		heir := victim
		heir.ID = g.nextID
		g.nextID++
		heir = g.wireObject(heir)
		weights := heir.PDF.Weights()
		var err error
		if i%2 == 1 {
			if err = tr.local("delete", func() error { return g.db.Delete(victim.ID) }); err == nil {
				err = tr.local("insert", func() error { return g.db.Insert(heir) })
			}
		} else {
			issued.Store(int64(time.Since(t0)))
			err = tr.request("delete", func() error { return c.Delete(victim.ID) }, func() []piece {
				reqEnc, reqDec, _ := framed("req", wire.OpDelete,
					func(b *wire.Buffer) { b.I32(victim.ID) }, func(r *wire.Reader) { r.I32() })
				respEnc, respDec, _ := framed("resp", wire.StatusOK, empty, none)
				return []piece{reqEnc, reqDec, respEnc, respDec}
			})
			if err == nil {
				issued.Store(int64(time.Since(t0)))
				err = tr.request("insert", func() error {
					return c.Insert(heir.ID, heir.Region.C.X, heir.Region.C.Y, heir.Region.R, weights)
				}, func() []piece {
					reqEnc, reqDec, _ := framed("req", wire.OpInsert,
						func(b *wire.Buffer) {
							b.I32(heir.ID)
							b.F64(heir.Region.C.X)
							b.F64(heir.Region.C.Y)
							b.F64(heir.Region.R)
							b.U16(uint16(len(weights)))
							for _, w := range weights {
								b.F64(w)
							}
						},
						func(r *wire.Reader) {
							r.I32()
							r.F64()
							r.F64()
							r.F64()
							for n := r.U16(); n > 0; n-- {
								r.F64()
							}
						})
					respEnc, respDec, _ := framed("resp", wire.StatusOK, empty, none)
					return []piece{reqEnc, reqDec, respEnc, respDec}
				})
			}
		}
		if err != nil {
			return tracedErr("delete/insert pair", err)
		}
		g.live[v] = heir
	}
	g.res.Attempted += int64(2 * len(victims))
	if err := pushConn.Ping(); err != nil { // every delta of the last write has arrived
		return tracedErr("ping", err)
	}
	for _, sub := range subs {
		if _, err := sub.Close(); err != nil {
			return tracedErr("unsubscribe", err)
		}
	}
	ms1, bp1 := g.db.MutationStats(), g.db.BufferPoolStats()

	g.res.set("db.delete_us", reading(tr.med("delete", "db.call", time.Microsecond), pairs))
	g.res.set("db.insert_us", reading(tr.med("insert", "db.call", time.Microsecond), pairs))
	dels, inss := int(ms1.Deletes-ms0.Deletes), int(ms1.Inserts-ms0.Inserts)
	g.res.set("db.dependents_per_delete", per(ms1.Dependents-ms0.Dependents, dels))
	g.res.set("db.rederived_per_delete", per(ms1.Rederived-ms0.Rederived, dels))
	g.res.set("db.skipped_per_delete", per(ms1.Skipped-ms0.Skipped, dels))
	g.res.set("db.repaired_per_insert", per(ms1.Repaired-ms0.Repaired, inss))
	g.res.set("pager.writes_per_mutation", per(bp1.PagerWrites-bp0.PagerWrites, dels+inss))
	g.res.set("db.slack_end", reading(float64(g.db.Slack()), 1))
	mu.Lock()
	g.res.set("server.push_latency_us", of(pushLat))
	mu.Unlock()

	// The ledger must still describe the database.
	g.res.Attempted++
	if got, want := g.db.Len(), len(g.live); got != want {
		g.res.fail("after traced churn db.Len() = %d, ledger %d", got, want)
	}
	if err := g.verifyPNN(c, rand.New(rand.NewSource(g.seed+71))); err != nil {
		return err
	}

	t1 := time.Now()
	if err := g.db.Compact(context.Background()); err != nil {
		return tracedErr("compact", err)
	}
	g.res.set("db.compact_ms", reading(float64(time.Since(t1))/float64(time.Millisecond), 1))
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// persistence times one SaveSnapshot of the live database and one
// out-of-core Open of the file.
func (g *rig) persistence() error {
	path, _, saved, err := g.saveSnapshot()
	if err != nil {
		return err
	}
	g.res.set("db.save_snapshot_ms", reading(float64(saved)/float64(time.Millisecond), 1))
	t0 := time.Now()
	db, err := uvdiagram.Open(path, mmapOptions())
	if err != nil {
		return fmt.Errorf("open snapshot: %w", err)
	}
	g.res.set("db.open_ms", reading(float64(time.Since(t0))/float64(time.Millisecond), 1))
	return db.Close()
}

// validity runs the concurrent phases of the traced pass, on the
// connections and the database the fixed-count part has warmed: the
// open loop (its tail latency, and how late the generator sends), the
// writer beside a reader, and a closed loop of the cheapest request,
// phase (c) of moving-knn, which also measures what recording a client
// span per request costs.
func (g *rig) validity(seconds float64) error {
	slice := time.Duration(0.03 * seconds * float64(time.Second))
	lat, lag := g.openLoop(5*slice, openRate)
	g.res.set("pnn_open_p99_ms", tail(lats(lat, time.Millisecond)))
	g.res.set("bench.generator_lag_ms", of(lag))

	dels, inss, _, took := g.runChurn(0, 4*slice)
	ms := lats(dels, time.Millisecond)
	g.res.set("delete_p50_ms", reading(median(ms), len(ms)))
	g.res.set("delete_p99_ms", tail(ms))
	g.res.set("write_ops_per_s", reading(float64(len(dels)+len(inss))/took.Seconds(), len(dels)+len(inss)))

	// Tracing overhead: one closed loop in which every other request is
	// also recorded as a client span, so both kinds see the same host
	// from one moment to the next. A request's time here includes the
	// recording.
	tr := newTracer()
	qs := g.queryPoints(6)
	var plain, traced []float64
	g.closedLoop(g.clients[:1], 7*slice, func(c *server.Client, _, i int) error {
		call := func() error {
			_, err := c.PossibleKNN(qs[i%len(qs)], knnK)
			return err
		}
		t0 := time.Now()
		if i%2 == 1 {
			err := tr.request("knn", call, func() []piece { return nil })
			traced = append(traced, float64(time.Since(t0))/float64(time.Microsecond))
			return err
		}
		err := call()
		plain = append(plain, float64(time.Since(t0))/float64(time.Microsecond))
		return err
	})
	g.res.set("knn_p50_us", reading(median(plain), len(plain)))
	g.res.set("bench.trace_overhead_pct", reading(100*(median(traced)/median(plain)-1), len(plain)+len(traced)))
	return nil
}
