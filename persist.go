package uvdiagram

import (
	"fmt"
	"os"

	"uvdiagram/internal/core"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Legacy logical streams (versions 1–4), READ-ONLY: nothing writes them
// any more (SaveSnapshot's page images are the one written
// format), but every file an earlier release saved still opens through
// Open. A logical stream carries the objects and one UV-index stream
// per shard; pages and the helper R-tree are rebuilt in the heap.
//
// Version 2 added a per-object tombstone flag (version 1 implies every
// object is live), version 3 the spatial shard grid (gx × gy) followed
// by one index stream per shard, version 4 the layout's cut coordinates
// (streams of that version may hold cuts that are not equal strips; Open
// keeps them).

const (
	dbMagic          = 0x55564442 // "UVDB"
	dbVersionSharded = 3
	dbVersionCuts    = 4
	// legacyMinObjectBytes is the smallest encoding of one object (centre,
	// radius, bin count, one weight): it bounds the object count against
	// the bytes actually present.
	legacyMinObjectBytes = 3*8 + 4 + 8
)

// openLegacy reopens the version 1–4 stream at path (Open has already
// checked the magic and dispatched on the version). Every
// malformed-stream failure is a *SnapshotError.
func openLegacy(path string, opts *Options) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	db, err := decodeLegacy(data, opts)
	if err != nil {
		return nil, snapErr(path, "%v", err)
	}
	return db, nil
}

// decodeLegacy rebuilds the database a version 1–4 stream describes;
// every error it returns means the stream is malformed. opts only
// affect future Inserts and Compacts; the index structure and shard
// layout come from the stream.
func decodeLegacy(data []byte, opts *Options) (*DB, error) {
	r := wire.NewReader(data)
	r.U32() // magic
	version := r.U32()
	domain := Rect{Min: Pt(r.F64(), r.F64()), Max: Pt(r.F64(), r.F64())}
	gx, gy := 1, 1
	if version >= dbVersionSharded {
		gx, gy = int(r.U32()), int(r.U32())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if !validShardGrid(gx, gy) {
		return nil, fmt.Errorf("implausible shard layout %d×%d", gx, gy)
	}
	xs := cuts(domain.Min.X, domain.Max.X, gx)
	ys := cuts(domain.Min.Y, domain.Max.Y, gy)
	if version >= dbVersionCuts {
		var err error
		if xs, err = readCuts(r, gx, domain.Min.X, domain.Max.X); err == nil {
			ys, err = readCuts(r, gy, domain.Min.Y, domain.Max.Y)
		}
		if err != nil {
			return nil, err
		}
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reading object count: %w", err)
	}
	if n <= 0 || n > snapMaxObjects || n > r.Remaining()/legacyMinObjectBytes {
		return nil, fmt.Errorf("implausible object count %d", n)
	}
	objs := make([]Object, n)
	var dead []int32
	for i := range objs {
		if version >= 2 && r.U8() == 0 {
			dead = append(dead, int32(i))
		}
		x, y, rad := r.F64(), r.F64(), r.F64()
		bins := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("reading object %d: %w", i, err)
		}
		if bins <= 0 || bins > 4096 {
			return nil, fmt.Errorf("object %d has a pdf of %d bins", i, bins)
		}
		ws := make([]float64, bins)
		for k := range ws {
			ws[k] = r.F64()
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("reading object %d pdf: %w", i, err)
		}
		pdf, err := uncertain.NewHistogramPDF(ws)
		if err != nil {
			return nil, fmt.Errorf("object %d: %w", i, err)
		}
		objs[i] = NewObject(int32(i), x, y, rad, pdf)
	}
	store, err := uncertain.NewStore(objs, pager.New(pager.DefaultPageSize))
	if err != nil {
		return nil, err
	}
	for _, id := range dead {
		if err := store.Delete(id); err != nil {
			return nil, err
		}
	}
	if err := checkStoredObjects(store, domain); err != nil {
		return nil, err
	}
	// The layout comes from the stream: Options.Shards only affects
	// freshly built databases, never a reopened one.
	lo := newShardLayout(gx, gy, xs, ys)
	indexes := make([]*core.UVIndex, len(lo.shards))
	for i := range lo.shards {
		if indexes[i], err = core.LoadUVIndex(r, store); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if indexes[i].Domain() != lo.shards[i] {
			return nil, fmt.Errorf("shard %d covers %v, layout expects %v",
				i, indexes[i].Domain(), lo.shards[i])
		}
	}
	// Unify the per-shard registry copies into the one engine-wide
	// CRState the runtime maintains. Streams whose shards shared one
	// registry when they were saved carry identical copies, so sharing
	// is free; a pre-registry stream whose shards diverged (old per-shard
	// compaction re-derived locally) gets those shards' leaf structures
	// rebuilt from shard 0's copy, so leaf lists and registry agree again
	// — answers are exact either way.
	reg := indexes[0].CR()
	for i := 1; i < len(indexes); i++ {
		if indexes[i].CR().EqualCROf(reg) {
			indexes[i].AttachCR(reg)
		} else if indexes[i], err = indexes[i].ReindexCR(reg); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	tree := core.BuildHelperRTree(store, opts.toBuildOptions().Fanout)
	return assembleDB(store, domain, lo, indexes, reg, tree, opts), nil
}
