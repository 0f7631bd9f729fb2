package uvdiagram

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Self-driving maintenance. The engine has every maintenance primitive
// its dynamic setting needs — watermark-armed per-shard compaction,
// online Reshard, CompactAll — but they fire only when something calls
// them. The Maintainer closes the loop: a single background goroutine
// samples LoadImbalance and per-shard slack on a ticker and calls
// Reshard itself when skew persists, with two-threshold hysteresis, a
// sustain window, a cooldown and exponential backoff so churny
// workloads can never make it thrash. A server holding thousands of
// live moving-query subscriptions cannot pause for an operator; this is
// the operator.
//
// The control law, per tick:
//
//   - Sample imbalance = LoadImbalance() (max/mean of per-shard live
//     counts; 1.0 is perfectly even).
//   - imbalance ≥ HighWater: pressure++ — skew must SUSTAIN for
//     SustainTicks consecutive-ish ticks before anything fires.
//   - imbalance ≤ LowWater: pressure and backoff reset — the system is
//     balanced, disarm entirely.
//   - In between (the hysteresis band): pressure HOLDS. An oscillating
//     workload that keeps dipping into the band neither accumulates
//     pressure toward a spurious reshard nor discards evidence of real
//     sustained skew.
//   - pressure ≥ SustainTicks and the cooldown has expired and no
//     background shard compaction is in flight (a layout swap would
//     retire the epochs those builds are about to publish): run
//     Reshard. Success resets pressure and starts the MinInterval
//     cooldown; failure backs off exponentially up to MaxBackoff.
//
// Each tick also re-runs the CompactSlack watermark check, so slack
// stranded by a skipped background compaction (e.g. a layout swap won
// the race) is re-armed even after writes stop.

// Maintenance event kinds (MaintEvent.Kind).
const (
	// MaintReshard is a full layout re-cut (Reshard/ReshardWith);
	// ImbalanceBefore/After are populated.
	MaintReshard = "reshard"
	// MaintCompact is a full re-derivation rebuild (Compact).
	MaintCompact = "compact"
	// MaintCompactShard is one shard's shadow rebuild (CompactShard,
	// CompactAll, or the background auto-compaction watermark); Shard is
	// the shard index.
	MaintCompactShard = "compact-shard"
)

// MaintEvent describes one completed maintenance action, fired
// synchronously from the maintenance paths to the observer registered
// with DB.OnMaintenance — the feed behind the server's maint.* metrics.
type MaintEvent struct {
	// Kind is MaintReshard, MaintCompact or MaintCompactShard.
	Kind string
	// Shard is the shard index for MaintCompactShard, -1 otherwise.
	Shard int
	// Dur is the action's wall clock.
	Dur time.Duration
	// ImbalanceBefore/After bracket a MaintReshard (equal on failure;
	// zero for other kinds).
	ImbalanceBefore, ImbalanceAfter float64
	// Err is nil on success.
	Err error
}

// OnMaintenance registers fn as the observer of completed maintenance
// events (nil unregisters). One observer is held; a second call
// replaces the first. fn is called synchronously from inside the
// maintenance paths — some while engine locks are held — so it must be
// fast and must not call back into the DB's mutation or maintenance
// methods.
func (db *DB) OnMaintenance(fn func(MaintEvent)) {
	if fn == nil {
		db.maintObs.Store(nil)
		return
	}
	db.maintObs.Store(&fn)
}

// fireMaint delivers ev to the registered observer, if any.
func (db *DB) fireMaint(ev MaintEvent) {
	if obs := db.maintObs.Load(); obs != nil {
		(*obs)(ev)
	}
}

// MaintainOptions tune the self-driving maintenance controller. The
// zero value of every field selects the listed default, so
// &MaintainOptions{} is a fully autonomous configuration.
type MaintainOptions struct {
	// Interval is the sampling tick period (default 2s).
	Interval time.Duration
	// HighWater arms the controller: LoadImbalance must reach it for
	// SustainTicks ticks before a reshard may fire (default 1.6, must
	// exceed LowWater).
	HighWater float64
	// LowWater disarms the controller: imbalance at or below it resets
	// the sustain pressure and the failure backoff (default 1.25, must
	// be ≥ 1).
	LowWater float64
	// SustainTicks is how many high-water ticks must accumulate —
	// without an intervening dip below LowWater — before a reshard fires
	// (default 3).
	SustainTicks int
	// MinInterval is the cooldown after a successful reshard; no
	// controller-initiated reshard runs sooner (default 30s).
	MinInterval time.Duration
	// MaxBackoff caps the exponential backoff applied after failed
	// reshards (default 8 × MinInterval).
	MaxBackoff time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (o MaintainOptions) withDefaults() MaintainOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.HighWater == 0 {
		o.HighWater = 1.6
	}
	if o.LowWater == 0 {
		o.LowWater = 1.25
	}
	if o.SustainTicks <= 0 {
		o.SustainTicks = 3
	}
	if o.MinInterval <= 0 {
		o.MinInterval = 30 * time.Second
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 8 * o.MinInterval
	}
	return o
}

// validate rejects a configuration whose thresholds cannot implement
// hysteresis.
func (o MaintainOptions) validate() error {
	if o.LowWater < 1 {
		return fmt.Errorf("uvdiagram: maintain LowWater %.3g < 1 (imbalance is never below 1)", o.LowWater)
	}
	if o.HighWater <= o.LowWater {
		return fmt.Errorf("uvdiagram: maintain HighWater %.3g must exceed LowWater %.3g (hysteresis band)",
			o.HighWater, o.LowWater)
	}
	return nil
}

// MaintainerStats is a snapshot of the controller's counters.
type MaintainerStats struct {
	// Ticks counts sampling passes.
	Ticks uint64
	// Reshards counts successful controller-initiated reshards.
	Reshards uint64
	// ReshardFailures counts failed or cancelled ones.
	ReshardFailures uint64
	// CompactArms counts background shard compactions the controller's
	// slack sweep armed.
	CompactArms uint64
	// Deferrals counts reshard attempts postponed because a background
	// shard compaction was in flight.
	Deferrals uint64
	// CooldownSkips counts ticks where sustained pressure wanted a
	// reshard but the cooldown (or backoff) window had not expired.
	CooldownSkips uint64
	// VacuumedBytes is the cumulative storage reclaimed by the per-tick
	// pager vacuum (heap buffers released to the GC, dead mmap extents
	// advised out of the page cache).
	VacuumedBytes int64
	// Pressure is the current sustain counter (ticks at or above
	// HighWater since the last dip below LowWater or the last reshard).
	Pressure int
	// LastImbalance is the imbalance sampled by the most recent tick.
	LastImbalance float64
	// Backoff is the currently applied failure backoff (0 when healthy).
	Backoff time.Duration
}

// Maintainer is the self-driving maintenance controller of one DB. At
// most one is attached to a DB at a time (StartMaintainer enforces it);
// Stop detaches it, after which a fresh one may be started.
type Maintainer struct {
	db   *DB
	opts MaintainOptions
	// now is the tick clock, swappable by tests for deterministic
	// cooldown arithmetic.
	now func() time.Time

	ctx     context.Context
	cancel  context.CancelFunc
	stopped chan struct{} // closed when the loop exits

	// mu serializes ticks (the background loop and manual Tick calls)
	// and guards the controller state below.
	mu          sync.Mutex
	st          MaintainerStats
	nextAllowed time.Time
}

// StartMaintainer attaches a self-driving maintenance controller to the
// database and starts its background sampling loop. It fails if the
// options are invalid or a maintainer is already attached. Stop the
// returned Maintainer to detach it.
func (db *DB) StartMaintainer(opts MaintainOptions) (*Maintainer, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Maintainer{
		db:      db,
		opts:    opts,
		now:     time.Now,
		ctx:     ctx,
		cancel:  cancel,
		stopped: make(chan struct{}),
	}
	if !db.maint.CompareAndSwap(nil, m) {
		cancel()
		return nil, fmt.Errorf("uvdiagram: a maintainer is already attached (Stop it first)")
	}
	go m.loop()
	return m, nil
}

// Maintainer returns the currently attached controller, nil if none.
func (db *DB) Maintainer() *Maintainer { return db.maint.Load() }

// Stop halts the background loop, cancels any reshard it has in flight
// (best-effort: the shadow build itself is uninterruptible) and
// detaches the controller from the DB. It blocks until the loop has
// exited and is idempotent.
func (m *Maintainer) Stop() {
	m.cancel()
	<-m.stopped
	m.db.maint.CompareAndSwap(m, nil)
}

// Options returns the controller's effective (default-filled) options.
func (m *Maintainer) Options() MaintainOptions { return m.opts }

// Stats snapshots the controller's counters.
func (m *Maintainer) Stats() MaintainerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// loop is the background sampler.
func (m *Maintainer) loop() {
	defer close(m.stopped)
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// Tick runs one sampling/decision pass of the control law synchronously
// (the background loop calls it every Interval; tests and the perf gate
// call it directly). Concurrent ticks serialize; a tick that decides to
// reshard returns only when the reshard has finished.
func (m *Maintainer) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	db := m.db
	m.st.Ticks++
	imb := db.LoadImbalance()
	m.st.LastImbalance = imb

	// Slack sweep: re-arm background compaction for shards stuck above
	// the watermark. The mutation paths arm at write time; this closes
	// the gap for slack stranded when writes stop or an arming race was
	// lost to a layout swap.
	m.st.CompactArms += uint64(db.maybeCompact())

	// Storage sweep: release what the COW retire paths have freed since
	// the last tick — heap page buffers for the GC, dead extents of an
	// mmap-backed snapshot for the kernel. The frees themselves already
	// waited out the epoch grace period, so this is pure reclamation.
	m.st.VacuumedBytes += db.Vacuum()

	switch {
	case imb >= m.opts.HighWater:
		m.st.Pressure++
	case imb <= m.opts.LowWater:
		m.st.Pressure = 0
		m.st.Backoff = 0
		// Between the watermarks pressure holds: neither accumulating
		// toward a spurious reshard nor forgetting sustained skew.
	}
	if m.st.Pressure < m.opts.SustainTicks {
		return
	}
	now := m.now()
	if now.Before(m.nextAllowed) {
		m.st.CooldownSkips++
		return
	}
	if db.lo().anyCompacting() {
		// An in-flight background shard compaction is about to publish
		// an epoch into the current layout; a reshard now would retire
		// it unseen. Pressure holds, so the reshard fires on the next
		// clear tick.
		m.st.Deferrals++
		return
	}
	if err := db.Reshard(m.ctx); err != nil {
		m.st.ReshardFailures++
		if m.st.Backoff <= 0 {
			m.st.Backoff = m.opts.MinInterval
		} else if m.st.Backoff < m.opts.MaxBackoff {
			m.st.Backoff *= 2
			if m.st.Backoff > m.opts.MaxBackoff {
				m.st.Backoff = m.opts.MaxBackoff
			}
		}
		m.nextAllowed = m.now().Add(m.st.Backoff)
		return
	}
	m.st.Reshards++
	m.st.Backoff = 0
	m.st.Pressure = 0 // skew must re-sustain before the next one
	m.nextAllowed = m.now().Add(m.opts.MinInterval)
}
