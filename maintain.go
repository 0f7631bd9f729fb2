package uvdiagram

import "time"

// MaintCompact is the MaintEvent.Kind of a full re-derivation rebuild
// (Compact).
const MaintCompact = "compact"

// MaintEvent describes one completed maintenance action, fired
// synchronously from the maintenance paths to the observer registered
// with DB.OnMaintenance — the feed behind the server's maint.* metrics.
type MaintEvent struct {
	// Kind is MaintCompact.
	Kind string
	// Dur is the action's wall clock.
	Dur time.Duration
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
