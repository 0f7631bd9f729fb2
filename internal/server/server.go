// Package server exposes a built UV-diagram database over TCP with the
// framed binary protocol of package wire — the service substrate for
// the location-based-service settings of the paper's introduction
// (e.g. the wireless broadcast services of [2], [3] front a spatial
// index with exactly this kind of query endpoint).
//
// Concurrency model: queries take no server lock and run concurrently
// with everything — the DB is lock-free for readers (mutations write
// copy-on-write pages and publish them atomically; retired pages
// outlive in-flight readers). Server.mu only orders writes: Insert,
// Delete and BatchDelete hold it exclusively, one at a time, and the
// subscription engine holds it shared while it opens or revalidates a
// session so no write lands mid-evaluation. DB.Compact swaps freshly
// built state in with one atomic store per shard, so it runs WITHOUT the
// server lock and never blocks queries.
//
// Connections are pipelined: each connection runs a decode loop over a
// buffered reader, a response-writer goroutine over a buffered writer,
// and a set of reused worker goroutines, with up to Config.Window
// requests in flight at once. At most Config.Workers requests execute at
// once across the whole server, and responses are always written in
// request order, so clients may stream requests without waiting for
// answers. The writer coalesces: it appends every finished response and
// flushes only when the next one is unfinished or nothing is pending.
// Batch opcodes fan their points out across the pool. A framing or
// checksum error poisons the connection, while an application-level
// error (including a malformed request payload) is reported in-band and
// the connection continues.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"uvdiagram"
	"uvdiagram/internal/metrics"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Config tunes the serving engine. The zero value selects the defaults.
type Config struct {
	// Window is the maximum number of in-flight requests per connection
	// (default 64). A full window applies backpressure by pausing the
	// connection's decode loop.
	Window int
	// Workers bounds the number of concurrently executing requests
	// across the whole server, and the fan-out width of one batch
	// request (default GOMAXPROCS).
	Workers int
	// PushTimeout bounds one out-of-band push write to a subscriber: a
	// consumer that stopped reading long enough for its socket buffer
	// to fill would otherwise stall whoever produces its deltas, so
	// after PushTimeout its connection is disconnected (and counted in
	// push.slow_consumer_disconnects). Zero selects the default 5s;
	// negative values are rejected by NewWithConfig — an unbounded push
	// write would let one dead subscriber wedge the whole server.
	PushTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PushTimeout == 0 {
		c.PushTimeout = 5 * time.Second
	}
	return c
}

// validate rejects configurations withDefaults cannot repair.
func (c Config) validate() error {
	if c.PushTimeout < 0 {
		return fmt.Errorf("server: PushTimeout %v is negative (0 selects the 5s default)", c.PushTimeout)
	}
	return nil
}

// Server serves one DB over a listener.
type Server struct {
	mu     sync.RWMutex // orders writes against each other and the subscription sweep; queries take no server lock (the DB is lock-free for readers)
	db     *uvdiagram.DB
	cfg    Config
	sem    chan struct{} // server-wide worker pool (one token = one executing request)
	logf   func(format string, args ...any)
	wg     sync.WaitGroup
	lmu    sync.Mutex // guards lis
	lis    net.Listener
	closed chan struct{}

	// The subscription engine's server-wide session table, swept by the
	// churn notifier after every write (see subscribe.go).
	submu sync.RWMutex
	subs  map[uint64]*session
	subid uint64 // last assigned subscription id (guarded by submu)
	// beforeRegister, when set (tests only, before Serve), runs on the
	// writer goroutine between a subscribe response's write and the
	// session's registration — the window a racing teardown lands in.
	beforeRegister func()
	// aroundFinish, when set (tests only, before Serve), runs on the
	// worker in place of finishing a query's slot and must call finish —
	// so a test can hold one response unfinished while later ones finish.
	aroundFinish func(op byte, finish func())

	// metrics is the observability registry (see metrics.go), exposed
	// through OpMetrics, MetricsSnapshot/MetricsMap and uvclient.
	metrics *serverMetrics
}

// New wraps a built database with the default Config. logf may be nil
// to discard logs.
func New(db *uvdiagram.DB, logf func(format string, args ...any)) *Server {
	s, err := NewWithConfig(db, logf, Config{})
	if err != nil {
		// The zero Config is always valid; reaching here is a
		// programming error in validate itself.
		panic(err)
	}
	return s
}

// NewWithConfig wraps a built database with an explicit engine
// configuration, rejecting invalid configurations (negative
// PushTimeout). It registers itself as the database's maintenance
// observer (DB.OnMaintenance), so compaction events land in the
// server's maint.* metrics; a caller-installed observer would be
// replaced.
func NewWithConfig(db *uvdiagram.DB, logf func(format string, args ...any), cfg Config) (*Server, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		db:      db,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Workers),
		logf:    logf,
		closed:  make(chan struct{}),
		subs:    make(map[uint64]*session),
		metrics: newServerMetrics(),
	}
	db.OnMaintenance(s.metrics.observeMaint)
	return s, nil
}

// DB returns the served database.
func (s *Server) DB() *uvdiagram.DB { return s.db }

// Addr returns the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections until the listener is closed. It always
// returns a non-nil error (net.ErrClosed after Close). Called after
// Close, it closes lis and returns net.ErrClosed at once.
func (s *Server) Serve(lis net.Listener) error {
	s.lmu.Lock()
	// Close closes s.closed before it takes lmu, so either it finds lis
	// stored here and closes it, or this check sees s.closed closed.
	select {
	case <-s.closed:
		s.lmu.Unlock()
		lis.Close()
		return net.ErrClosed
	default:
	}
	s.lis = lis
	s.lmu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves. The returned address
// channel receives the bound address once (useful with ":0").
func (s *Server) ListenAndServe(addr string, bound chan<- net.Addr) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if bound != nil {
		bound <- lis.Addr()
	}
	return s.Serve(lis)
}

// Close stops accepting connections and returns at once. It neither
// closes nor waits for open connections: each ends when its client
// disconnects, or after the next request it decodes. Wait blocks until
// all have ended.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	s.lmu.Lock()
	defer s.lmu.Unlock()
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	return err
}

// Wait blocks until every connection goroutine has exited.
func (s *Server) Wait() { s.wg.Wait() }

// slot is one in-flight request's response, filled by a worker and
// consumed by the connection's writer goroutine.
type slot struct {
	done    chan struct{} // closed when status/payload are final
	status  byte
	payload []byte
	// written, when set, runs on the writer goroutine right after the
	// response frame is on the wire — the subscribe handler uses it to
	// publish a session only once the client can know its id, so no
	// push ever precedes the response carrying that id.
	written func()
}

func (sl *slot) finish(resp []byte, err error) {
	if err == nil && 1+len(resp)+4 > wire.MaxFrame {
		err = fmt.Errorf("server: response of %d bytes exceeds frame limit; split the batch", len(resp))
	}
	if err != nil {
		var eb wire.Buffer
		eb.Str(err.Error())
		sl.status, sl.payload = wire.StatusErr, eb.Bytes()
	} else {
		sl.status, sl.payload = wire.StatusOK, resp
	}
	close(sl.done)
}

func (sl *slot) finished() bool {
	select {
	case <-sl.done:
		return true
	default:
		return false
	}
}

// connBufSize is the size of each connection's read and write buffers.
// One read or write call moves up to this many bytes of frames.
const connBufSize = 32 << 10

// countedConn counts the read and write calls the connection's buffers
// make on the socket (conn.read_calls, conn.write_calls).
type countedConn struct {
	net.Conn
	reads, writes *metrics.Counter
}

func (c countedConn) Read(p []byte) (int, error) {
	c.reads.Inc()
	return c.Conn.Read(p)
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Inc()
	return c.Conn.Write(p)
}

// job is one query handed from the decode loop to a worker.
type job struct {
	sl      *slot
	op      byte
	payload []byte
}

// serveConn pipelines one connection: the calling goroutine decodes
// frames and hands each query to one of the connection's workers, while
// a writer goroutine emits responses strictly in request order (see
// writeResponses). The pending channel is the in-flight window; when it
// is full the decode loop blocks, which is the protocol's backpressure.
//
// Workers are reused: a query goes to an idle worker over the
// unbuffered jobs channel, and only when none is idle does a new one
// start (at most Window per connection). Each stays until the
// connection ends. The server-wide token pool s.sem bounds how many
// run at once across all connections.
//
// Write requests (Insert, Delete, BatchDelete) are per-connection
// execution barriers: the decode loop waits for the connection's
// in-flight queries to finish, runs the write inline, and only then
// decodes further frames — so a pipelined stream keeps
// read-your-writes ordering on its own connection. Queries pipelined
// across *different* connections are not ordered against writes: each
// sees the database state before or after a write, never a mix.
func (s *Server) serveConn(conn net.Conn) {
	m := s.metrics
	cc := countedConn{Conn: conn, reads: m.connReads, writes: m.connWrites}
	cs := &connState{s: s, conn: conn, bw: bufio.NewWriterSize(cc, connBufSize), subs: make(map[uint64]*session)}
	br := bufio.NewReaderSize(cc, connBufSize)
	pending := make(chan *slot, s.cfg.Window)
	jobs := make(chan job)      // unbuffered: a send succeeds only when a worker is idle
	var inflight sync.WaitGroup // this connection's executing queries
	var workers sync.WaitGroup
	started := 0
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cs.writeResponses(pending)
	}()
	defer func() {
		close(jobs)
		close(pending)
		<-writerDone
		workers.Wait()
		// Sessions go before the socket: a peer that observes the close
		// must find them already torn down.
		s.dropConnSessions(cs)
		conn.Close()
	}()

	for {
		select {
		case <-s.closed:
			return
		default:
		}
		op, payload, err := wire.ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("server: %v: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// One decoded request frame = exactly one ops.* increment, here
		// and nowhere else — what makes the counters ground-truth exact.
		s.metrics.ops[op].Inc()
		if op == wire.OpMove {
			// Fire-and-forget: no response slot. Runs inline so the
			// move's delta (if any) is on the wire before any later
			// frame of this connection is decoded.
			if err := s.handleMove(cs, payload); err != nil {
				s.metrics.opErrors.Inc()
				s.logf("server: %v: move: %v", conn.RemoteAddr(), err)
				return // poison: no in-band channel exists for move errors
			}
			continue
		}
		sl := &slot{done: make(chan struct{})}
		pending <- sl // in-flight window (blocks when full)
		if op == wire.OpInsert || op == wire.OpDelete || op == wire.OpBatchDelete {
			inflight.Wait() // barrier: earlier queries observe pre-write state
			s.sem <- struct{}{}
			resp, err := s.dispatch(op, payload)
			<-s.sem
			if err != nil {
				s.metrics.opErrors.Inc()
			}
			if err == nil {
				// Push answer deltas to every affected subscriber BEFORE
				// the write's response is released (see notifySessions).
				s.notifySessions()
			}
			sl.finish(resp, err)
			continue // later frames decode only after the write landed
		}
		inflight.Add(1)
		s.sem <- struct{}{}
		j := job{sl: sl, op: op, payload: payload}
		if started == s.cfg.Window {
			jobs <- j // every worker this connection may start exists
			continue
		}
		select {
		case jobs <- j:
		default:
			started++
			workers.Add(1)
			go func() {
				defer workers.Done()
				s.work(cs, j, jobs, &inflight)
			}()
		}
	}
}

// work is one connection worker: it runs j, then every job it receives
// while idle, until the connection's decode loop closes jobs.
func (s *Server) work(cs *connState, j job, jobs <-chan job, inflight *sync.WaitGroup) {
	for ok := true; ok; j, ok = <-jobs {
		resp, err := s.dispatchConn(cs, j.sl, j.op, j.payload)
		if err != nil {
			s.metrics.opErrors.Inc()
		}
		if s.aroundFinish != nil {
			s.aroundFinish(j.op, func() { j.sl.finish(resp, err) })
		} else {
			j.sl.finish(resp, err)
		}
		inflight.Done()
		<-s.sem
	}
}

// writeResponses is the connection's response writer. It appends every
// finished slot to the write buffer in request order and flushes only
// when the next slot is unfinished or nothing is pending — a burst of
// finished responses leaves in one write, and a lone response leaves at
// once (there is no timer). A subscribe response is flushed before its
// written hook registers the session.
func (cs *connState) writeResponses(pending <-chan *slot) {
	var next *slot // received from pending, not yet written
	broken := false
	for {
		sl, ok := next, true
		if sl == nil {
			sl, ok = <-pending
		}
		if !ok {
			return
		}
		<-sl.done
		next = nil
		if broken {
			continue // drain so the decode loop never blocks forever
		}
		select {
		case next = <-pending: // nil once pending is closed
		default:
		}
		flush := next == nil || !next.finished() || sl.written != nil
		if err := cs.respond(sl, flush); err != nil {
			broken = true
			cs.conn.Close() // unblocks the decode loop's read
			continue
		}
		if sl.written != nil {
			sl.written()
		}
	}
}

// dispatchConn routes the opcodes that need per-connection state (the
// subscription engine) and falls through to the stateless dispatch.
func (s *Server) dispatchConn(cs *connState, sl *slot, op byte, payload []byte) ([]byte, error) {
	switch op {
	case wire.OpSubscribe:
		return s.handleSubscribe(cs, sl, payload)
	case wire.OpUnsubscribe:
		return s.handleUnsubscribe(cs, payload)
	}
	return s.dispatch(op, payload)
}

func (s *Server) dispatch(op byte, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	switch op {
	case wire.OpPing:
		return nil, nil

	case wire.OpStats:
		d := s.db.Domain()
		st := s.db.IndexStats()
		var b wire.Buffer
		b.F64(d.Min.X)
		b.F64(d.Min.Y)
		b.F64(d.Max.X)
		b.F64(d.Max.Y)
		b.U32(uint32(s.db.Len()))
		b.U32(uint32(st.NonLeaf))
		b.U32(uint32(st.Leaves))
		b.U32(uint32(st.Pages))
		b.U32(uint32(st.MaxDepth))
		b.U64(uint64(st.Entries))
		// Appended after the original fields: the ID the next Insert
		// must carry. Objects above reports the LIVE count, which after
		// deletions is smaller than the dense id space — clients must
		// not derive insert ids from it.
		b.I32(s.db.NextID())
		// Appended after NextID: the spatial shard count and each
		// shard's accumulated mutation slack. Older clients stop
		// reading before this.
		shards := s.db.ShardStats()
		b.U32(uint32(len(shards)))
		for _, sh := range shards {
			b.U64(uint64(sh.Slack))
		}
		// Appended after the slack block: the shard grid dimensions,
		// the layout's cut coordinates (gx+1 x-cuts, gy+1 y-cuts — equal
		// strips, or whatever cuts the opened file stores), and each
		// shard's live-object count (uvclient derives the max/mean
		// imbalance factor from it). Older clients stop reading before
		// this too.
		gx, gy := s.db.ShardGrid()
		xs, ys := s.db.ShardCuts()
		b.U32(uint32(gx))
		b.U32(uint32(gy))
		for _, v := range xs {
			b.F64(v)
		}
		for _, v := range ys {
			b.F64(v)
		}
		for _, sh := range shards {
			b.U32(uint32(sh.Live))
		}
		return b.Bytes(), nil

	case wire.OpPNN:
		q := uvdiagram.Pt(r.F64(), r.F64())
		if err := payloadDone(r, "pnn"); err != nil {
			return nil, err
		}
		answers, st, err := s.db.PNN(q)
		if err != nil {
			return nil, err
		}
		s.metrics.observeQuery(st)
		return encodeAnswers(answers), nil

	case wire.OpTopK:
		q := uvdiagram.Pt(r.F64(), r.F64())
		k := int(r.U32())
		if err := payloadDone(r, "top-k"); err != nil {
			return nil, err
		}
		answers, st, err := s.db.TopKPNN(q, k)
		if err != nil {
			return nil, err
		}
		s.metrics.observeQuery(st)
		return encodeAnswers(answers), nil

	case wire.OpPossibleKNN:
		q := uvdiagram.Pt(r.F64(), r.F64())
		k := int(r.U32())
		if err := payloadDone(r, "possible-k-NN"); err != nil {
			return nil, err
		}
		ids, err := s.db.PossibleKNN(q, k)
		if err != nil {
			return nil, err
		}
		var b wire.Buffer
		b.U32(uint32(len(ids)))
		for _, id := range ids {
			b.I32(id)
		}
		return b.Bytes(), nil

	case wire.OpRNN:
		q := uvdiagram.Pt(r.F64(), r.F64())
		if err := payloadDone(r, "rnn"); err != nil {
			return nil, err
		}
		answers, _ := s.db.RNN(q)
		var b wire.Buffer
		b.U32(uint32(len(answers)))
		for _, a := range answers {
			b.I32(a.ID)
			b.F64(a.Prob)
		}
		return b.Bytes(), nil

	case wire.OpCellArea:
		id := r.I32()
		if err := payloadDone(r, "cell-area"); err != nil {
			return nil, err
		}
		area, err := s.db.CellArea(id)
		if err != nil {
			return nil, err
		}
		var b wire.Buffer
		b.F64(area)
		return b.Bytes(), nil

	case wire.OpPartitions:
		rect := uvdiagram.Rect{
			Min: uvdiagram.Pt(r.F64(), r.F64()),
			Max: uvdiagram.Pt(r.F64(), r.F64()),
		}
		if err := payloadDone(r, "partitions"); err != nil {
			return nil, err
		}
		parts := s.db.Partitions(rect)
		var b wire.Buffer
		b.U32(uint32(len(parts)))
		for _, p := range parts {
			b.F64(p.Region.Min.X)
			b.F64(p.Region.Min.Y)
			b.F64(p.Region.Max.X)
			b.F64(p.Region.Max.Y)
			b.U32(uint32(p.Count))
			b.F64(p.Density)
		}
		return b.Bytes(), nil

	case wire.OpMetrics:
		if err := payloadDone(r, "metrics"); err != nil {
			return nil, err
		}
		snap := s.MetricsSnapshot()
		var b wire.Buffer
		b.U32(uint32(len(snap)))
		for _, v := range snap {
			b.Str(v.Name)
			b.F64(v.Value)
		}
		return b.Bytes(), nil

	case wire.OpBatchPNN, wire.OpBatchTopK, wire.OpBatchKNN, wire.OpBatchThreshold:
		return s.dispatchBatch(op, r)

	case wire.OpInsert:
		id := r.I32()
		cx, cy, rad := r.F64(), r.F64(), r.F64()
		nb := int(r.U16())
		if nb > 1024 {
			return nil, fmt.Errorf("server: pdf with %d bins rejected", nb)
		}
		weights := make([]float64, nb)
		for i := range weights {
			weights[i] = r.F64()
		}
		if err := payloadDone(r, "insert"); err != nil {
			return nil, err
		}
		var pdf *uvdiagram.PDF
		if nb > 0 {
			p, err := uncertain.NewHistogramPDF(weights)
			if err != nil {
				return nil, err
			}
			pdf = p
		}
		obj := uvdiagram.NewObject(id, cx, cy, rad, pdf)
		s.mu.Lock()
		err := s.db.Insert(obj)
		s.mu.Unlock()
		return nil, err

	case wire.OpDelete:
		id := r.I32()
		if err := payloadDone(r, "delete"); err != nil {
			return nil, err
		}
		s.mu.Lock()
		err := s.db.Delete(id)
		s.mu.Unlock()
		return nil, err

	case wire.OpBatchDelete:
		n := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n > wire.MaxBatchPoints {
			return nil, fmt.Errorf("server: batch delete of %d ids exceeds limit %d", n, wire.MaxBatchPoints)
		}
		if 4*n > r.Remaining() {
			return nil, fmt.Errorf("server: batch delete count %d exceeds payload (%d bytes remaining)", n, r.Remaining())
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = r.I32()
		}
		if err := payloadDone(r, "batch delete"); err != nil {
			return nil, err
		}
		s.mu.Lock()
		err := s.db.BatchDelete(ids)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		var b wire.Buffer
		b.U32(uint32(n))
		return b.Bytes(), nil

	default:
		return nil, fmt.Errorf("server: unknown opcode 0x%02x", op)
	}
}

// payloadDone returns the decode error of a request payload, or an
// error naming its unread trailing bytes: a payload longer than its
// opcode's layout is malformed, not a request to answer.
func payloadDone(r *wire.Reader, what string) error {
	if err := r.Err(); err != nil {
		return err
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("server: %s payload has %d trailing bytes", what, rem)
	}
	return nil
}

func encodeAnswers(answers []uvdiagram.Answer) []byte {
	var b wire.Buffer
	b.U32(uint32(len(answers)))
	for _, a := range answers {
		b.I32(a.ID)
		b.F64(a.Prob)
	}
	return b.Bytes()
}

// Logf is a convenience adapter for log.Printf-style loggers.
func Logf(l *log.Logger) func(string, ...any) {
	return func(format string, args ...any) { l.Printf(format, args...) }
}
