package core

import (
	"fmt"

	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Page-image snapshots: unlike Save/LoadUVIndex — which persist the
// logical structure and write every leaf page again on load — a
// snapshot separates the index into a compact MANIFEST (tree shape,
// leaf id lists, per-leaf page counts) and the raw page images
// themselves, which the caller persists verbatim in manifest walk
// order. Opening then just points a fresh tree at the existing pages
// (typically a pager mapped over the snapshot file), so
// a database serves straight off disk with zero rebuild work and zero
// resident heap for leaf payloads.
//
// Page ids are implicit: the manifest records only how many pages each
// leaf owns, and both SnapshotManifest and OpenUVIndexSnapshot walk the
// tree in the same depth-first order, so leaf k's pages are the next
// count_k sequential ids. This works because a pager built from a
// snapshot allocates ids 0,1,2,… in Alloc order (heap replay) or
// addresses the file section directly (pager.NewMapped).

// SnapshotManifest serializes the index's structure — without the
// constraint registry, which the engine persists once at the database
// level — and returns the leaf page ids in manifest order so the caller
// can copy the page images out of ix.Pager() into the snapshot file.
func (ix *UVIndex) SnapshotManifest() ([]byte, []pager.PageID) {
	var w wire.Buffer
	ix.putHeader(&w, ix.store.Len())
	var pages []pager.PageID
	ix.g.PutTree(&w, func(leaf []pager.PageID) {
		w.U32(uint32(len(leaf)))
		pages = append(pages, leaf...)
	})
	return w.Bytes(), pages
}

// OpenUVIndexSnapshot reconstructs an index from a manifest written by
// SnapshotManifest and a pager already holding the page images in
// manifest order (ids 0..NumPages-1). No pages are written and no write
// pass runs: the decoded tree is published as-is, which is the whole
// point — opening a snapshot costs only the manifest parse.
//
// The store provides object geometry for future queries and mutations;
// cr is the engine-level constraint registry the leaves were built
// from.
func OpenUVIndexSnapshot(manifest []byte, store *uncertain.Store, cr *CRState, pg *pager.Pager) (*UVIndex, error) {
	r := wire.NewReader(manifest)
	domain, opts, orderK, n := readHeader(r, true)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if orderK < 1 {
		return nil, fmt.Errorf("core: snapshot cell order %d", orderK)
	}
	if n != store.Len() {
		return nil, fmt.Errorf("core: snapshot indexes %d objects, store has %d", n, store.Len())
	}
	opts.normalize()
	if opts.PageSize != pg.PageSize() {
		return nil, fmt.Errorf("core: snapshot page size %d, pager %d", opts.PageSize, pg.PageSize())
	}
	ix, err := newIndex(store, domain, opts, cr, orderK, pg)
	if err != nil {
		return nil, err
	}
	total := pg.NumPages()
	next := 0 // next unclaimed sequential page id
	err = ix.g.Load(r, n, func([]int32) ([]pager.PageID, error) {
		count := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if count < 1 || next+count > total {
			return nil, fmt.Errorf("leaf claims pages [%d, %d) of %d", next, next+count, total)
		}
		pages := make([]pager.PageID, count)
		for i := range pages {
			pages[i] = pager.PageID(next + i)
		}
		next += count
		return pages, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: snapshot tree: %w", err)
	}
	if next != total {
		return nil, fmt.Errorf("core: snapshot tree claims %d pages, section holds %d", next, total)
	}
	return ix, nil
}
