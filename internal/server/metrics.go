package server

import (
	"uvdiagram"
	"uvdiagram/internal/metrics"
	"uvdiagram/internal/wire"
)

// Server observability: every request frame bumps a per-opcode counter,
// the push path times its flushes and counts slow-consumer disconnects,
// and the DB's maintenance observer feeds compaction events —
// all lock-free atomics on the hot paths (see internal/metrics). The
// flattened snapshot is served identically through the OpMetrics wire
// opcode, Server.MetricsMap (the expvar feed) and `uvclient metrics`.
//
// Counter semantics are EXACT: a request frame increments exactly one
// ops.* counter at decode time, so under any concurrency the counts
// equal the number of frames the server decoded. The conn.* counters
// are exact too: conn.read_calls and conn.write_calls count the read and
// write calls every connection made on its socket, conn.frames_out the
// response and push frames put into the write buffers. Frames per
// syscall are then the sum of ops.* over conn.read_calls, and
// conn.frames_out over conn.write_calls. Gauges (db.*, sub.*,
// cache.*, pager.*) are sampled at snapshot time from the live
// engine.
type serverMetrics struct {
	set *metrics.Set

	// ops maps a request opcode byte to its counter; unknown bytes
	// share ops.unknown. Filled once at construction so the decode loop
	// never touches the registry lock.
	ops      [256]*metrics.Counter
	opErrors *metrics.Counter

	connReads  *metrics.Counter
	connWrites *metrics.Counter
	framesOut  *metrics.Counter

	// The three phases of a PNN/TopK (the paper's Fig. 6(c) split), from
	// the engine's own QueryStats. Not under ops.*: those are frame
	// counts.
	queryTraverse *metrics.Histogram
	queryRetrieve *metrics.Histogram
	queryProb     *metrics.Histogram

	pushDeltas    *metrics.Counter
	pushFlush     *metrics.Histogram
	slowConsumers *metrics.Counter

	maintCompacts   *metrics.Counter
	maintFailures   *metrics.Counter
	maintCompactDur *metrics.Histogram

	// Snapshot-time gauges.
	subActive   *metrics.Gauge
	dbLive      *metrics.Gauge
	dbSlack     *metrics.Gauge
	rtHits      *metrics.Gauge
	rtMisses    *metrics.Gauge
	rtEvict     *metrics.Gauge
	pagerReads  *metrics.Gauge
	pagerWrites *metrics.Gauge
	pagerDisk   *metrics.Gauge
	pagerTail   *metrics.Gauge
}

func newServerMetrics() *serverMetrics {
	set := metrics.NewSet()
	m := &serverMetrics{
		set:      set,
		opErrors: set.Counter("ops.errors"),

		connReads:  set.Counter("conn.read_calls"),
		connWrites: set.Counter("conn.write_calls"),
		framesOut:  set.Counter("conn.frames_out"),

		queryTraverse: set.Histogram("query.traverse"),
		queryRetrieve: set.Histogram("query.retrieve"),
		queryProb:     set.Histogram("query.prob"),

		pushDeltas:    set.Counter("push.deltas"),
		pushFlush:     set.Histogram("push.flush"),
		slowConsumers: set.Counter("push.slow_consumer_disconnects"),

		maintCompacts:   set.Counter("maint.compacts"),
		maintFailures:   set.Counter("maint.failures"),
		maintCompactDur: set.Histogram("maint.compact"),

		subActive:   set.Gauge("sub.active"),
		dbLive:      set.Gauge("db.live"),
		dbSlack:     set.Gauge("db.slack"),
		rtHits:      set.Gauge("cache.rtree_hits"),
		rtMisses:    set.Gauge("cache.rtree_misses"),
		rtEvict:     set.Gauge("cache.rtree_evictions"),
		pagerReads:  set.Gauge("pager.reads"),
		pagerWrites: set.Gauge("pager.writes"),
		pagerDisk:   set.Gauge("pager.disk_bytes"),
		pagerTail:   set.Gauge("pager.tail_bytes"),
	}
	unknown := set.Counter("ops.unknown")
	for i := 0; i < 256; i++ {
		if name := wire.OpName(byte(i)); name != "unknown" {
			m.ops[i] = set.Counter("ops." + name)
		} else {
			m.ops[i] = unknown
		}
	}
	return m
}

// observeQuery records one answered PNN/TopK's phase timings, so a
// running server shows where its query time goes (prob's share is
// query.prob.sum_ns over the three sums).
func (m *serverMetrics) observeQuery(st uvdiagram.QueryStats) {
	m.queryTraverse.Observe(st.TraverseDur)
	m.queryRetrieve.Observe(st.RetrieveDur)
	m.queryProb.Observe(st.ProbDur)
}

// observeMaint is the DB maintenance observer (see DB.OnMaintenance):
// it runs synchronously inside the maintenance paths, so it only bumps
// atomics.
func (m *serverMetrics) observeMaint(ev uvdiagram.MaintEvent) {
	if ev.Err != nil {
		m.maintFailures.Inc()
		return
	}
	if ev.Kind == uvdiagram.MaintCompact {
		m.maintCompacts.Inc()
		m.maintCompactDur.Observe(ev.Dur)
	}
}

// MetricsSnapshot samples the live-engine gauges and returns the full
// flattened metric set, sorted by name — the one source behind the
// OpMetrics opcode, MetricsMap/expvar and the CLI. Safe to call
// concurrently with traffic; no server lock is taken (the sampled DB
// accessors are atomic reads).
func (s *Server) MetricsSnapshot() []metrics.Value {
	m := s.metrics
	m.subActive.Set(float64(s.Subscriptions()))
	m.dbLive.Set(float64(s.db.Len()))
	m.dbSlack.Set(float64(s.db.Slack()))
	bp := s.db.BufferPoolStats()
	m.rtHits.Set(float64(bp.RTreeHits))
	m.rtMisses.Set(float64(bp.RTreeMisses))
	m.rtEvict.Set(float64(bp.RTreeEvictions))
	m.pagerReads.Set(float64(bp.PagerReads))
	m.pagerWrites.Set(float64(bp.PagerWrites))
	m.pagerDisk.Set(float64(bp.DiskBytes))
	m.pagerTail.Set(float64(bp.TailBytes))
	return m.set.Snapshot()
}

// MetricsMap renders MetricsSnapshot as a name → value map — the shape
// expvar.Func wants, so cmd/uvserver can publish the whole set on the
// existing -pprof HTTP listener with one registration.
func (s *Server) MetricsMap() map[string]float64 {
	snap := s.MetricsSnapshot()
	out := make(map[string]float64, len(snap))
	for _, v := range snap {
		out[v.Name] = v.Value
	}
	return out
}
