package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"uvdiagram"
	"uvdiagram/internal/wire"
)

// Client is a pipelined UV-diagram protocol client. Any number of
// requests may be in flight at once: Go queues a request without
// waiting for its response, the synchronous methods are Go plus a wait.
// A background writer goroutine puts every frame queued since its last
// write on the wire in one write call. The server answers strictly in
// request order, so a background reader goroutine matches responses to
// calls FIFO. A Client is safe for concurrent use from multiple
// goroutines.
type Client struct {
	conn net.Conn

	mu      sync.Mutex // guards queue, out and err
	queue   []*Call    // outstanding calls, oldest first
	out     []byte     // encoded frames the writer has not taken yet
	err     error      // sticky transport error; set once, fails everything after
	ready   sync.Cond  // signalled when out gains frames or err is set
	drained sync.Cond  // broadcast when the writer takes out or err is set

	writerDone chan struct{} // closed when the writer goroutine has exited

	submu sync.Mutex               // guards subs
	subs  map[uint64]*Subscription // live subscriptions by server id
}

const (
	// maxQueued bounds the bytes of frames queued for the writer. A
	// caller whose frame does not fit waits for the writer to take the
	// queue, as a blocking write waits on a full socket. A single frame
	// larger than the bound is queued alone.
	maxQueued = 64 << 10
	// readBufSize is the client's read buffer: one read call takes up to
	// this many bytes of response frames.
	readBufSize = 32 << 10
)

// errClosed fails every call made after Close.
var errClosed = fmt.Errorf("client: %w", net.ErrClosed)

// Call is one in-flight request. When the response (or a transport
// error) arrives, the call is sent on Done.
type Call struct {
	Op   byte
	Err  error         // set on in-band server errors and transport failures
	Done chan *Call    // receives the call itself on completion
	r    *wire.Reader  // response payload on success
	sub  *Subscription // subscribe calls: registered by the read loop before completion
}

// Reader returns the response payload reader, or the call's error. It
// must only be used after the call was received from Done.
func (call *Call) Reader() (*wire.Reader, error) { return call.r, call.Err }

// complete delivers the finished call without ever blocking: a full
// Done channel drops the notification (net/rpc semantics), so a
// misbehaving consumer cannot stall the response reader.
func (call *Call) complete() {
	select {
	case call.Done <- call:
	default:
	}
}

// Dial connects to a UV-diagram server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection (e.g. a net.Pipe end in
// tests) and starts the request writer and the response reader. Close
// releases them.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, writerDone: make(chan struct{})}
	c.ready.L = &c.mu
	c.drained.L = &c.mu
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Close closes the connection and returns once the writer goroutine has
// exited. Queued frames not yet written are dropped; outstanding calls
// and every later call fail with an error.
func (c *Client) Close() error {
	c.fail(errClosed)
	<-c.writerDone
	return nil
}

// Go queues one request and returns immediately. done may be nil for a
// fresh buffered channel, otherwise it must be buffered with room for
// every call it serves concurrently (one channel can serve many calls,
// rpc-style) — as in net/rpc, a completion that finds the channel full
// is dropped rather than allowed to stall the response reader. The
// returned call is sent on its Done channel when the response arrives.
func (c *Client) Go(op byte, payload []byte, done chan *Call) *Call {
	return c.goCall(op, payload, done, nil)
}

// goWithSub is Go for subscribe calls: the read loop registers sub
// (decoding the response into it) before completing the call, so no
// delta pushed right behind the response can miss the subscription.
func (c *Client) goWithSub(op byte, payload []byte, sub *Subscription) *Call {
	return c.goCall(op, payload, nil, sub)
}

func (c *Client) goCall(op byte, payload []byte, done chan *Call, sub *Subscription) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	} else if cap(done) == 0 {
		panic("server: Go done channel is unbuffered")
	}
	call := &Call{Op: op, Done: done, sub: sub}
	if err := c.enqueue(op, payload, call); err != nil {
		call.Err = err
		call.complete()
	}
	return call
}

// enqueue waits until the frame fits the write queue, then appends it
// and, for a request, its call — both under mu, so queue order equals
// write order. It fails once the client has failed or closed, and for
// an oversized frame: that is rejected before anything is queued, so
// the stream stays in sync and only this frame fails.
func (c *Client) enqueue(op byte, payload []byte, call *Call) error {
	n := 1 + len(payload) + 4
	if n > wire.MaxFrame {
		return fmt.Errorf("client: request of %d bytes exceeds frame limit %d; split the batch", n, wire.MaxFrame)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && len(c.out) > 0 && len(c.out)+4+n > maxQueued {
		c.drained.Wait()
	}
	if c.err != nil {
		return c.err
	}
	c.out, _ = wire.AppendFrame(c.out, op, payload) // size checked above
	if call != nil {
		c.queue = append(c.queue, call)
	}
	c.ready.Signal()
	return nil
}

// writeLoop is the writer goroutine: it takes every queued frame at
// once and puts them on the wire in one write call, swapping between
// two buffers. It exits on the first write error or once the client
// has failed.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	var buf []byte
	for {
		c.mu.Lock()
		for c.err == nil && len(c.out) == 0 {
			c.ready.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		buf, c.out = c.out, buf[:0]
		c.drained.Broadcast()
		c.mu.Unlock()
		if _, err := c.conn.Write(buf); err != nil {
			c.fail(fmt.Errorf("client: send: %w", err))
			return
		}
	}
}

// readLoop receives response frames and completes outstanding calls in
// FIFO order. It exits on the first transport error, failing every
// outstanding and future call.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		status, resp, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("client: receive: %w", err))
			return
		}
		if status == wire.PushAnswerDelta {
			// Out-of-band server push: not a response, consumes no call.
			if err := c.handlePush(resp); err != nil {
				c.fail(err)
				return
			}
			continue
		}
		c.mu.Lock()
		var call *Call
		if len(c.queue) > 0 {
			call = c.queue[0]
			c.queue = c.queue[1:]
		}
		c.mu.Unlock()
		if call == nil {
			c.fail(fmt.Errorf("client: response frame without outstanding request"))
			return
		}
		r := wire.NewReader(resp)
		switch status {
		case wire.StatusOK:
			call.r = r
			if call.sub != nil {
				call.Err = c.registerSub(call.sub, r)
			}
		case wire.StatusErr:
			msg := r.Str()
			if err := r.Err(); err != nil {
				call.Err = fmt.Errorf("client: malformed error response: %w", err)
			} else {
				call.Err = fmt.Errorf("server: %s", msg)
			}
		default:
			call.Err = fmt.Errorf("client: unknown response status 0x%02x", status)
		}
		call.complete()
	}
}

// fail records the first transport error, drops the unwritten frames,
// wakes the writer and every caller waiting for queue room, closes the
// connection and completes every outstanding call with the error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	} else {
		err = c.err
	}
	queue := c.queue
	c.queue, c.out = nil, nil
	c.ready.Signal()
	c.drained.Broadcast()
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range queue {
		call.Err = err
		call.complete()
	}
}

// send queues one fire-and-forget frame (OpMove): no call is queued and
// no response will arrive for it. It returns once the frame is queued;
// a later write failure fails the client instead.
func (c *Client) send(op byte, payload []byte) error {
	return c.enqueue(op, payload, nil)
}

// roundTrip sends one request and waits for its response.
func (c *Client) roundTrip(op byte, payload []byte) (*wire.Reader, error) {
	call := c.Go(op, payload, nil)
	<-call.Done
	return call.r, call.Err
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wire.OpPing, nil)
	return err
}

// Stats mirrors DB.Len, DB.Domain, DB.IndexStats and DB.NextID.
type Stats struct {
	Domain uvdiagram.Rect
	// Objects is the LIVE object count (deletions shrink it).
	Objects  int
	NonLeaf  int
	Leaves   int
	Pages    int
	MaxDepth int
	Entries  int64
	// NextID is the ID the next Insert must carry. After deletions it
	// exceeds Objects: the dense id space never shrinks or reuses ids.
	// Zero when talking to a pre-delete server that does not send it.
	NextID int32
	// Shards is the server's spatial shard count (0 when talking to a
	// pre-sharding server that does not send it).
	Shards int
	// ShardSlack is each shard's accumulated mutation slack since its
	// index was last (re)built, in shard order.
	ShardSlack []int64
	// GridX, GridY are the shard grid dimensions (0 when talking to a
	// pre-layout server that does not send them).
	GridX, GridY int
	// CutsX, CutsY are the layout's cut coordinates (GridX+1 and
	// GridY+1 values; equal strips unless the served file stores other
	// cuts).
	CutsX, CutsY []float64
	// ShardLive is each shard's live-object count in shard order.
	ShardLive []int
}

// LoadImbalance returns max/mean of ShardLive (1 = perfectly balanced;
// 0 when the server did not send shard loads).
func (st Stats) LoadImbalance() float64 {
	if len(st.ShardLive) == 0 {
		return 0
	}
	total, max := 0, 0
	for _, v := range st.ShardLive {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(st.ShardLive)) / float64(total)
}

// Stats fetches server-side database statistics.
func (c *Client) Stats() (Stats, error) {
	r, err := c.roundTrip(wire.OpStats, nil)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Domain: uvdiagram.Rect{
			Min: uvdiagram.Pt(r.F64(), r.F64()),
			Max: uvdiagram.Pt(r.F64(), r.F64()),
		},
		Objects:  int(r.U32()),
		NonLeaf:  int(r.U32()),
		Leaves:   int(r.U32()),
		Pages:    int(r.U32()),
		MaxDepth: int(r.U32()),
		Entries:  int64(r.U64()),
	}
	if r.Err() == nil && r.Remaining() >= 4 {
		st.NextID = r.I32()
	}
	if r.Err() == nil && r.Remaining() >= 4 {
		st.Shards = int(r.U32())
		if st.Shards > 0 && r.Remaining() >= 8*st.Shards {
			st.ShardSlack = make([]int64, st.Shards)
			for i := range st.ShardSlack {
				st.ShardSlack[i] = int64(r.U64())
			}
		}
	}
	// Layout block (appended after the slack block): grid, cuts,
	// per-shard live counts.
	if r.Err() == nil && r.Remaining() >= 8 {
		gx, gy := int(r.U32()), int(r.U32())
		need := 8*(gx+1) + 8*(gy+1) + 4*st.Shards
		if gx >= 1 && gy >= 1 && gx*gy == st.Shards && r.Remaining() >= need {
			st.GridX, st.GridY = gx, gy
			st.CutsX = make([]float64, gx+1)
			for i := range st.CutsX {
				st.CutsX[i] = r.F64()
			}
			st.CutsY = make([]float64, gy+1)
			for i := range st.CutsY {
				st.CutsY[i] = r.F64()
			}
			st.ShardLive = make([]int, st.Shards)
			for i := range st.ShardLive {
				st.ShardLive[i] = int(r.U32())
			}
		}
	}
	return st, r.Err()
}

// Metrics fetches the server's observability snapshot: flattened
// (name, value) pairs sorted by name. Callers must ignore names they do
// not recognize — the metric set grows without a protocol bump.
func (c *Client) Metrics() ([]Metric, error) {
	r, err := c.roundTrip(wire.OpMetrics, nil)
	if err != nil {
		return nil, err
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() { // each metric is ≥ 12 bytes; cheap sanity cap
		return nil, fmt.Errorf("client: metric count %d exceeds payload", n)
	}
	out := make([]Metric, n)
	for i := range out {
		out[i] = Metric{Name: r.Str(), Value: r.F64()}
	}
	return out, r.Err()
}

// Metric is one named sample from the server's metrics snapshot.
type Metric struct {
	Name  string
	Value float64
}

func decodeAnswers(r *wire.Reader) ([]uvdiagram.Answer, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() { // each answer is ≥ 12 bytes; cheap sanity cap
		return nil, fmt.Errorf("client: answer count %d exceeds payload", n)
	}
	out := make([]uvdiagram.Answer, n)
	for i := range out {
		out[i] = uvdiagram.Answer{ID: r.I32(), Prob: r.F64()}
	}
	return out, r.Err()
}

// PNN runs a probabilistic nearest-neighbor query.
func (c *Client) PNN(q uvdiagram.Point) ([]uvdiagram.Answer, error) {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	r, err := c.roundTrip(wire.OpPNN, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeAnswers(r)
}

// TopKPNN runs a top-k probable nearest-neighbor query.
func (c *Client) TopKPNN(q uvdiagram.Point, k int) ([]uvdiagram.Answer, error) {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	b.U32(uint32(k))
	r, err := c.roundTrip(wire.OpTopK, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeAnswers(r)
}

// decodeIDs reads a u32-prefixed list of object IDs.
func decodeIDs(r *wire.Reader) ([]int32, error) {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("client: id count %d exceeds payload", n)
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = r.I32()
	}
	return ids, r.Err()
}

// PossibleKNN runs a possible-k-NN query, returning answer IDs.
func (c *Client) PossibleKNN(q uvdiagram.Point, k int) ([]int32, error) {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	b.U32(uint32(k))
	r, err := c.roundTrip(wire.OpPossibleKNN, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeIDs(r)
}

// RNN runs a probabilistic reverse nearest-neighbor query.
func (c *Client) RNN(q uvdiagram.Point) ([]uvdiagram.RNNAnswer, error) {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	r, err := c.roundTrip(wire.OpRNN, b.Bytes())
	if err != nil {
		return nil, err
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("client: answer count %d exceeds payload", n)
	}
	out := make([]uvdiagram.RNNAnswer, n)
	for i := range out {
		out[i] = uvdiagram.RNNAnswer{ID: r.I32(), Prob: r.F64()}
	}
	return out, r.Err()
}

// CellArea fetches the approximate UV-cell area of an object.
func (c *Client) CellArea(id int32) (float64, error) {
	var b wire.Buffer
	b.I32(id)
	r, err := c.roundTrip(wire.OpCellArea, b.Bytes())
	if err != nil {
		return 0, err
	}
	area := r.F64()
	return area, r.Err()
}

// Partitions runs a UV-partition (density) query over a rectangle.
func (c *Client) Partitions(rect uvdiagram.Rect) ([]uvdiagram.Partition, error) {
	var b wire.Buffer
	b.F64(rect.Min.X)
	b.F64(rect.Min.Y)
	b.F64(rect.Max.X)
	b.F64(rect.Max.Y)
	r, err := c.roundTrip(wire.OpPartitions, b.Bytes())
	if err != nil {
		return nil, err
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("client: partition count %d exceeds payload", n)
	}
	out := make([]uvdiagram.Partition, n)
	for i := range out {
		out[i].Region = uvdiagram.Rect{
			Min: uvdiagram.Pt(r.F64(), r.F64()),
			Max: uvdiagram.Pt(r.F64(), r.F64()),
		}
		out[i].Count = int(r.U32())
		out[i].Density = r.F64()
	}
	return out, r.Err()
}

// GoPNN queues a PNN query without waiting (see Go); decode the
// response with PNNAnswers after the call completes.
func (c *Client) GoPNN(q uvdiagram.Point, done chan *Call) *Call {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	return c.Go(wire.OpPNN, b.Bytes(), done)
}

// PNNAnswers decodes a completed GoPNN call.
func PNNAnswers(call *Call) ([]uvdiagram.Answer, error) {
	r, err := call.Reader()
	if err != nil {
		return nil, err
	}
	return decodeAnswers(r)
}

// GoPossibleKNN queues a possible-k-NN query without waiting (see Go);
// decode the response with PossibleKNNIDs after the call completes.
func (c *Client) GoPossibleKNN(q uvdiagram.Point, k int, done chan *Call) *Call {
	var b wire.Buffer
	b.F64(q.X)
	b.F64(q.Y)
	b.U32(uint32(k))
	return c.Go(wire.OpPossibleKNN, b.Bytes(), done)
}

// PossibleKNNIDs decodes a completed GoPossibleKNN call.
func PossibleKNNIDs(call *Call) ([]int32, error) {
	r, err := call.Reader()
	if err != nil {
		return nil, err
	}
	return decodeIDs(r)
}

// BatchPNN answers one PNN query per point in a single frame pair. The
// batch is all-or-nothing: any failing query fails the whole call with
// the server's in-band error naming that query.
func (c *Client) BatchPNN(qs []uvdiagram.Point) ([][]uvdiagram.Answer, error) {
	if err := checkBatchSize(qs); err != nil {
		return nil, err
	}
	var b wire.Buffer
	encodePoints(&b, qs)
	r, err := c.roundTrip(wire.OpBatchPNN, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeAnswerLists(r)
}

// BatchTopKPNN answers one top-k PNN query per point in a single frame
// pair (k shared by the batch).
func (c *Client) BatchTopKPNN(qs []uvdiagram.Point, k int) ([][]uvdiagram.Answer, error) {
	if err := checkBatchSize(qs); err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.U32(uint32(k))
	encodePoints(&b, qs)
	r, err := c.roundTrip(wire.OpBatchTopK, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeAnswerLists(r)
}

// BatchPossibleKNN answers one possible-k-NN (order-k) query per point
// in a single frame pair (k shared by the batch).
func (c *Client) BatchPossibleKNN(qs []uvdiagram.Point, k int) ([][]int32, error) {
	if err := checkBatchSize(qs); err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.U32(uint32(k))
	encodePoints(&b, qs)
	r, err := c.roundTrip(wire.OpBatchKNN, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeIDLists(r)
}

// BatchThresholdNN answers one probability-threshold PNN query per
// point in a single frame pair: only answers with qualification
// probability ≥ tau are returned.
func (c *Client) BatchThresholdNN(qs []uvdiagram.Point, tau float64) ([][]uvdiagram.Answer, error) {
	if err := checkBatchSize(qs); err != nil {
		return nil, err
	}
	var b wire.Buffer
	b.F64(tau)
	encodePoints(&b, qs)
	r, err := c.roundTrip(wire.OpBatchThreshold, b.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeAnswerLists(r)
}

// Insert adds a new uncertain object (the incremental-update path). The
// weights may be nil for a uniform pdf.
func (c *Client) Insert(id int32, x, y, radius float64, weights []float64) error {
	var b wire.Buffer
	b.I32(id)
	b.F64(x)
	b.F64(y)
	b.F64(radius)
	b.U16(uint16(len(weights)))
	for _, w := range weights {
		b.F64(w)
	}
	_, err := c.roundTrip(wire.OpInsert, b.Bytes())
	return err
}

// Delete removes object id (the incremental-delete path). Like Insert,
// the server treats it as a per-connection pipeline barrier, so
// requests queued after it read post-delete state.
func (c *Client) Delete(id int32) error {
	call := c.GoDelete(id, nil)
	<-call.Done
	return call.Err
}

// GoDelete queues a delete without waiting (see Go). The completed
// call's Err carries the in-band result.
func (c *Client) GoDelete(id int32, done chan *Call) *Call {
	var b wire.Buffer
	b.I32(id)
	return c.Go(wire.OpDelete, b.Bytes(), done)
}

// BatchDelete removes many objects in one frame pair. The batch is
// all-or-nothing: the server validates every id before deleting any,
// and a failure names the offending position in-band.
func (c *Client) BatchDelete(ids []int32) error {
	if len(ids) > wire.MaxBatchPoints {
		return fmt.Errorf("client: batch of %d ids exceeds limit %d; split the batch", len(ids), wire.MaxBatchPoints)
	}
	var b wire.Buffer
	b.U32(uint32(len(ids)))
	for _, id := range ids {
		b.I32(id)
	}
	r, err := c.roundTrip(wire.OpBatchDelete, b.Bytes())
	if err != nil {
		return err
	}
	if echoed := int(r.U32()); r.Err() == nil && echoed != len(ids) {
		return fmt.Errorf("client: batch delete echoed %d ids, sent %d", echoed, len(ids))
	}
	return r.Err()
}
