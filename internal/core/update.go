package core

import (
	"fmt"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
)

// Incremental updates — the extension the paper lists as future work
// ("it would be interesting to study how the UV-diagram can be extended
// to support ... incremental updates").
//
// Insertion is sound without touching existing entries because of a
// monotonicity property of the UV-diagram: adding an object can only
// SHRINK every other object's UV-cell (each new outside region removes
// points, never adds them). Leaf lists are defined as supersets of the
// cells overlapping the leaf, so existing lists remain valid supersets
// after any insertion; the query-time dminmax filter removes the now-
// impossible candidates exactly.
//
// Deletion is the asymmetric case: removing an object GROWS every
// neighboring UV-cell, so existing leaf lists can stop being supersets.
// The damage is bounded, though: an object's cell can only change if
// the victim's constraint participated in its representation, i.e. if
// the victim is in its cr-set. The delete path therefore strips the
// victims from every dependent's representation and re-runs the leaf
// surgery for those dependents — any subset of LIVE constraint ids is
// a valid (conservative) cell representation, so this is sound whether
// or not a dependent also re-derives; the topology registry
// (topology.go) decides which dependents are worth re-deriving because
// the victim actually shaped their boundary. The price of both
// operations is accumulated slack (extra false positives, never wrong
// answers), counted in Slack weighted by the leaf-list entries
// touched; a rebuild (DB.Compact) resets the count.
//
// All live leaf surgery is COPY-ON-WRITE: a mutation path-copies the
// nodes it changes, writes fresh leaf pages, and publishes the new
// tree with one pointer store. Readers never synchronize with
// writers — a query pinned on the old snapshot keeps a consistent
// tree whose pages are retired through the epoch domain only once
// every such reader has unpinned. Mutators themselves must still be
// externally serialized per index (the DB's store lock, held
// exclusively by every writer, is that writer-writer lock).
//
// The registry mutations (CRState) and the leaf surgery are separate
// layers: a sharded engine updates the shared registry once under its
// store lock and then, still under it, runs InsertLeafLive /
// RemoveAndReinsertLive on each shard its cells reach. Both
// are one agrid write pass, the write path a build runs too.

// publish installs the pass's tree, retires the replaced pages,
// accrues the entry-weighted slack and bumps the mutation generation.
// No-op when the pass changed nothing.
func (ix *UVIndex) publish(p *agrid.Pass[geom.Rect], root *agrid.Node) {
	if !p.Changed() {
		return
	}
	p.Install(root)
	ix.slack.Add(int64(p.Entries()))
	ix.gen.Add(1)
	ix.retirePages(p.Retired())
}

// InsertLeafLive adds object id — whose representation must already be
// recorded in the registry — to the index's leaf lists. It returns the
// number of leaf entries created: 0 means the object's cell cannot
// reach this index's region, and the structure (slack, gen, caches,
// safe circles) is untouched, which is how a spatial shard ignores
// mutations elsewhere in the domain.
func (ix *UVIndex) InsertLeafLive(id int32) (int, error) {
	if int(id) >= ix.store.Len() {
		return 0, fmt.Errorf("core: object %d not in the store", id)
	}
	if int(id) >= len(ix.cr.crOf) {
		return 0, fmt.Errorf("core: object %d has no recorded constraint set", id)
	}
	p, root := ix.g.Begin()
	ix.publish(p, p.Insert(id, root))
	return p.Entries(), nil
}

// RemoveAndReinsertLive is the leaf-surgery half of a delete batch: one
// walk strips every id in remove from the leaf lists, then every id in
// reinsert (whose CURRENT representation in the registry — stripped of
// the victims, re-derived or not — must already be final) is
// re-inserted. It returns the number of leaf entries touched (removed +
// re-created); slack accrues that weight and the mutation generation
// bumps once if anything changed. The caller orchestrates the registry:
// victims dropped and stripped, tight survivors re-derived, all before
// this runs.
func (ix *UVIndex) RemoveAndReinsertLive(remove, reinsert []int32) (int, error) {
	rm := make(map[int32]bool, len(remove))
	for _, v := range remove {
		if v < 0 || int(v) >= len(ix.cr.crOf) {
			return 0, fmt.Errorf("core: remove of unknown object %d", v)
		}
		rm[v] = true
	}
	p, root := ix.g.Begin()
	root = p.Remove(root, rm)
	for _, a := range reinsert {
		root = p.Insert(a, root)
	}
	ix.publish(p, root)
	return p.Entries(), nil
}
