package uvdiagram

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"uvdiagram/internal/core"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Database persistence: SaveSnapshot is the one writer, Open the one
// opener. SaveSnapshot writes a version-6 page-image snapshot — the
// object records packed into 4 KB pages, the raw pages of every shard's
// UV-index and the helper R-tree, each section aligned to snapAlign,
// preceded by a metadata blob (domain, layout, tombstones, constraint
// registry, per-section manifests). Open of a snapshot then serves
// STRAIGHT OFF THE FILE: the page sections become mmap-backed
// pager.FileStores (zero-copy reads, no rebuild, no per-page heap), so
// a database much larger than RAM opens in milliseconds and the kernel
// pages leaf data in and out on demand. Open also reads the version-5
// snapshots and the version ≤ 4 logical streams (see persist.go) of
// earlier releases.
//
// File layout:
//
//	u32 magic "UVDB" | u32 version=6 | u64 metaLen | meta | pad
//	object pages   (objPages × storePageSize)      | pad
//	shard 0 pages  (count₀ × indexPageSize)        | pad
//	…                                              | pad
//	R-tree pages   (countᵣ × rtreePageSize)
//
// The object pages hold the records in id order, packed as
// uncertain.View.Pack lays them out. Version 5 differs only there: it
// held one record per 1 KB page, so objPages is n and the metadata does
// not store it. A v5 section is the degenerate case of the packed
// layout (each record at offset 0, the rest of its page zero), so one
// decoder reads both. Page ids inside each section
// are implicit sequential positions (the manifests record only per-leaf
// counts), which is exactly how both the FileStore addresses the
// section and a heap replay re-allocates it.

const (
	dbVersionSnapshot = 6
	// dbVersionPadded is the previous snapshot version: one object
	// record per page.
	dbVersionPadded = 5
	snapAlign       = 4096
	// snapMaxMeta bounds the metadata blob against corrupt headers.
	snapMaxMeta = 1 << 31
	// snapMaxPageSize bounds any section's page size.
	snapMaxPageSize = 1 << 20
	// snapMaxObjects bounds a file's object count.
	snapMaxObjects = 1 << 26
)

// ErrCorruptSnapshot is the sentinel every malformed-file failure of
// Open matches through errors.Is, whatever the file's version and
// whatever field was damaged. Open never returns a partially
// constructed DB alongside it.
var ErrCorruptSnapshot = errors.New("uvdiagram: corrupt snapshot")

// SnapshotError is the concrete malformed-file error: the file and
// what was wrong with it. errors.Is(err, ErrCorruptSnapshot) matches
// it.
type SnapshotError struct {
	Path   string
	Detail error
}

// Error implements error.
func (e *SnapshotError) Error() string {
	return fmt.Sprintf("uvdiagram: snapshot %s: %v", e.Path, e.Detail)
}

// Is makes every SnapshotError match the ErrCorruptSnapshot sentinel.
func (e *SnapshotError) Is(target error) bool { return target == ErrCorruptSnapshot }

// Unwrap exposes the underlying detail error.
func (e *SnapshotError) Unwrap() error { return e.Detail }

func snapErr(path, format string, args ...any) error {
	return &SnapshotError{Path: path, Detail: fmt.Errorf(format, args...)}
}

// snapMeta is the parsed metadata blob of a snapshot.
type snapMeta struct {
	domain        Rect
	gx, gy        int
	xs, ys        []float64
	n             int
	dead          []bool
	crSets        [][]int32
	storePageSize int
	storePages    int
	storeOff      int64 // byte offset of the object page section
	shards        []snapSection
	rt            snapSection
}

// snapSection describes one page section: its manifest and the page
// geometry needed to locate it in the file.
type snapSection struct {
	pageSize  int
	manifest  []byte
	pageCount int
	off       int64 // byte offset of the section's first page
}

// validShardGrid bounds a file's shard grid. Each axis is bounded
// before multiplying: a crafted gx = gy = 0xFFFFFFFF would overflow
// gx*gy past the product check and die in allocation instead of
// erroring.
func validShardGrid(gx, gy int) bool {
	return gx >= 1 && gy >= 1 && gx <= MaxShards && gy <= MaxShards && gx*gy <= MaxShards
}

// readCuts reads the k+1 cut coordinates of one layout axis: strictly
// increasing from lo to hi.
func readCuts(r *wire.Reader, k int, lo, hi float64) ([]float64, error) {
	out := make([]float64, k+1)
	for i := range out {
		out[i] = r.F64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reading layout cuts: %w", err)
	}
	for i := 1; i <= k; i++ {
		if !(out[i] > out[i-1]) {
			return nil, fmt.Errorf("layout cuts not increasing at %d", i)
		}
	}
	if out[0] != lo || out[k] != hi {
		return nil, fmt.Errorf("layout cuts do not span the domain")
	}
	return out, nil
}

func alignUp(off int64) int64 {
	return (off + snapAlign - 1) / snapAlign * snapAlign
}

// SaveSnapshot writes the database as a version-6 page-image snapshot
// to path (atomically: a temp file renamed into place), ready to be
// served off-disk by Open. The caller must not run mutations
// concurrently (queries are fine).
func (db *DB) SaveSnapshot(path string) error {
	db.smu.RLock()
	defer db.smu.RUnlock()

	lo := db.lo()
	eps := lo.epochs()
	tree := db.rtree()
	view := db.store.View()
	n := view.Len()
	storePageSize := max(pager.DefaultPageSize, db.store.Pager().PageSize())
	storePages, _ := view.Pack(storePageSize, func([]byte) error { return nil }) // counting cannot fail

	// Metadata blob first: everything Open needs before touching pages.
	var w wire.Buffer
	for _, v := range []float64{db.domain.Min.X, db.domain.Min.Y, db.domain.Max.X, db.domain.Max.Y} {
		w.F64(v)
	}
	w.U32(uint32(lo.gx))
	w.U32(uint32(lo.gy))
	for _, v := range lo.xs {
		w.F64(v)
	}
	for _, v := range lo.ys {
		w.F64(v)
	}
	w.U32(uint32(n))
	for i := 0; i < n; i++ {
		flag := byte(0)
		if view.Alive(int32(i)) {
			flag = 1
		}
		w.U8(flag)
	}
	// The engine-wide constraint registry, once — not once per shard as
	// the v≤4 index streams do.
	for i := 0; i < n; i++ {
		ids := db.cr.Of(int32(i))
		w.U32(uint32(len(ids)))
		for _, id := range ids {
			w.I32(id)
		}
	}
	w.U32(uint32(storePageSize))
	w.U32(uint32(storePages))
	type section struct {
		pg    *pager.Pager
		pages []pager.PageID
	}
	sections := make([]section, 0, len(eps)+1)
	addSection := func(pg *pager.Pager, manifest []byte, pages []pager.PageID) {
		w.U32(uint32(pg.PageSize()))
		w.Str(string(manifest))
		w.U32(uint32(len(pages)))
		sections = append(sections, section{pg: pg, pages: pages})
	}
	for _, ep := range eps {
		manifest, pages := ep.index.SnapshotManifest()
		addSection(ep.index.Pager(), manifest, pages)
	}
	manifest, pages := tree.SnapshotManifest()
	addSection(tree.Pager(), manifest, pages)
	meta := w.Bytes()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	var written int64
	emit := func(b []byte) error {
		nn, err := bw.Write(b)
		written += int64(nn)
		return err
	}
	pad := func() error {
		for written < alignUp(written) {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			written++
		}
		return nil
	}
	var hdr wire.Buffer
	hdr.U32(dbMagic)
	hdr.U32(dbVersionSnapshot)
	hdr.U64(uint64(len(meta)))
	if err := emit(hdr.Bytes()); err != nil {
		return err
	}
	if err := emit(meta); err != nil {
		return err
	}
	if err := pad(); err != nil {
		return err
	}
	if _, err := view.Pack(storePageSize, emit); err != nil {
		return err
	}
	for _, sec := range sections {
		if err := pad(); err != nil {
			return err
		}
		for _, pid := range sec.pages {
			if err := emit(sec.pg.Peek(pid)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return err
	}
	f = nil
	return os.Rename(tmp, path)
}

// parseSnapMeta decodes and validates the metadata blob of a snapshot
// of the given version, computing each section's byte offset and
// checking every section fits the file.
func parseSnapMeta(meta []byte, version uint32, metaOff, fileSize int64) (*snapMeta, error) {
	r := wire.NewReader(meta)
	m := &snapMeta{}
	m.domain = Rect{Min: Pt(r.F64(), r.F64()), Max: Pt(r.F64(), r.F64())}
	m.gx, m.gy = int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !validShardGrid(m.gx, m.gy) {
		return nil, fmt.Errorf("implausible shard layout %d×%d", m.gx, m.gy)
	}
	var err error
	if m.xs, err = readCuts(r, m.gx, m.domain.Min.X, m.domain.Max.X); err != nil {
		return nil, err
	}
	if m.ys, err = readCuts(r, m.gy, m.domain.Min.Y, m.domain.Max.Y); err != nil {
		return nil, err
	}
	m.n = int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.n <= 0 || m.n > snapMaxObjects || m.n > r.Remaining() {
		return nil, fmt.Errorf("implausible object count %d", m.n)
	}
	m.dead = make([]bool, m.n)
	for i := range m.dead {
		switch flag := r.U8(); flag {
		case 0, 1:
			m.dead[i] = flag == 0
		default:
			return nil, fmt.Errorf("object %d has tombstone flag %d", i, flag)
		}
	}
	m.crSets = make([][]int32, m.n)
	for i := range m.crSets {
		k := int(r.U32())
		if k < 0 || k > m.n || k > r.Remaining()/4 {
			return nil, fmt.Errorf("object %d cr-set of %d exceeds object count %d", i, k, m.n)
		}
		ids := make([]int32, k)
		for j := range ids {
			v := r.U32()
			if int(v) >= m.n {
				return nil, fmt.Errorf("object %d cr-id %d out of range", i, v)
			}
			ids[j] = int32(v)
		}
		m.crSets[i] = ids
	}
	m.storePageSize, m.storePages = int(r.U32()), m.n
	if version != dbVersionPadded {
		m.storePages = int(r.U32())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.storePages < 1 || m.storePages > m.n {
		return nil, fmt.Errorf("%d object pages for %d objects", m.storePages, m.n)
	}
	// section locates the next page section at the running aligned
	// offset and checks it fits the file.
	off := metaOff + int64(len(meta))
	section := func(name string, pageSize, pageCount int) (int64, error) {
		if pageSize <= 0 || pageSize > snapMaxPageSize {
			return 0, fmt.Errorf("%s page size %d", name, pageSize)
		}
		start := alignUp(off)
		off = start + int64(pageCount)*int64(pageSize)
		if pageCount < 0 || off > fileSize {
			return 0, fmt.Errorf("%s section [%d, %d) exceeds file of %d bytes", name, start, off, fileSize)
		}
		return start, nil
	}
	if m.storeOff, err = section("object", m.storePageSize, m.storePages); err != nil {
		return nil, err
	}
	readSection := func(name string) (snapSection, error) {
		s := snapSection{pageSize: int(r.U32()), manifest: r.Bytes(), pageCount: int(r.U32())}
		if err := r.Err(); err != nil {
			return s, err
		}
		var err error
		s.off, err = section(name, s.pageSize, s.pageCount)
		return s, err
	}
	m.shards = make([]snapSection, m.gx*m.gy)
	for i := range m.shards {
		if m.shards[i], err = readSection(fmt.Sprintf("shard %d", i)); err != nil {
			return nil, err
		}
	}
	if m.rt, err = readSection("r-tree"); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("metadata has %d trailing bytes", r.Remaining())
	}
	return m, nil
}

// Open opens a database file: a version-6 snapshot written by
// SaveSnapshot, or what an earlier release wrote — a version-5 snapshot
// or a version 1–4 logical stream (read-only legacy input: saving it
// again writes version 6; a stream's pages are rebuilt in the heap).
//
// For a snapshot, Options.Pager picks the backend: "mmap" (the
// default) maps the file read-only and serves zero-copy page reads off
// the mapping — the out-of-core mode, where opening is O(metadata) and
// the OS pages index data in on demand; "heap" copies the page images
// into in-heap pagers and closes the file, trading resident memory for
// independence from it. Either way the answers are identical to the
// database that was saved. Call DB.Close when done with an mmap-backed
// database.
//
// Every malformed-file failure, whatever the version, is a
// *SnapshotError matching ErrCorruptSnapshot.
func Open(path string, opts *Options) (*DB, error) {
	mode, err := opts.pagerMode()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [16]byte
	if _, err := io.ReadFull(f, hdr[:8]); err != nil {
		f.Close()
		return nil, snapErr(path, "reading header: %v", err)
	}
	h := wire.NewReader(hdr[:]) // the second half is filled in once the version says it exists
	if h.U32() != dbMagic {
		f.Close()
		return nil, snapErr(path, "not a UV-diagram database file")
	}
	version := h.U32()
	if version >= 1 && version <= dbVersionCuts {
		f.Close()
		return openLegacy(path, opts)
	}
	if version != dbVersionSnapshot && version != dbVersionPadded {
		f.Close()
		return nil, snapErr(path, "unsupported version %d", version)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fileSize := st.Size()
	if _, err := io.ReadFull(f, hdr[8:]); err != nil {
		f.Close()
		return nil, snapErr(path, "reading header: %v", err)
	}
	metaLen := h.U64()
	if metaLen > snapMaxMeta || 16+int64(metaLen) > fileSize {
		f.Close()
		return nil, snapErr(path, "metadata of %d bytes exceeds file of %d", metaLen, fileSize)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(f, meta); err != nil {
		f.Close()
		return nil, snapErr(path, "reading metadata: %v", err)
	}
	m, err := parseSnapMeta(meta, version, 16, fileSize)
	if err != nil {
		f.Close()
		return nil, snapErr(path, "metadata: %v", err)
	}

	// Materialize the page sections as pagers: FileStores over one
	// shared mapping (mmap mode) or heap replays (heap mode).
	var mapping *pager.Mapping
	fail := func(err error) (*DB, error) {
		if mapping != nil {
			mapping.Close() // closes f too
		} else {
			f.Close()
		}
		return nil, err
	}
	sectionPager := func(off int64, count, pageSize int) (*pager.Pager, error) {
		if mapping != nil {
			fs, err := pager.NewFileStore(mapping, int(off), count, pageSize)
			if err != nil {
				return nil, snapErr(path, "%v", err)
			}
			return pager.NewWithStore(fs), nil
		}
		buf := make([]byte, int64(count)*int64(pageSize))
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, snapErr(path, "reading section at %d: %v", off, err)
		}
		pg := pager.New(pageSize)
		for i := 0; i < count; i++ {
			pg.Alloc(buf[i*pageSize : (i+1)*pageSize])
		}
		pg.ResetStats() // replay writes are not workload I/O
		return pg, nil
	}
	if mode == pagerModeMmap {
		mapping, err = pager.MapFile(f)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	storePg, err := sectionPager(m.storeOff, m.storePages, m.storePageSize)
	if err != nil {
		return fail(err)
	}
	store, err := uncertain.OpenStoreSnapshot(storePg, m.n, m.dead)
	if err == nil {
		err = checkStoredObjects(store, m.domain)
	}
	if err != nil {
		return fail(snapErr(path, "%v", err))
	}
	reg := core.NewCRState(m.crSets)
	lo := newShardLayout(0, m.gx, m.gy, m.xs, m.ys)
	indexes := make([]*core.UVIndex, len(lo.shards))
	for i, sec := range m.shards {
		pg, err := sectionPager(sec.off, sec.pageCount, sec.pageSize)
		if err != nil {
			return fail(err)
		}
		if indexes[i], err = core.OpenUVIndexSnapshot(sec.manifest, store, reg, pg); err != nil {
			return fail(snapErr(path, "shard %d: %v", i, err))
		}
		if indexes[i].Domain() != lo.shards[i].rect {
			return fail(snapErr(path, "shard %d covers %v, layout expects %v", i, indexes[i].Domain(), lo.shards[i].rect))
		}
	}
	rtPg, err := sectionPager(m.rt.off, m.rt.pageCount, m.rt.pageSize)
	if err != nil {
		return fail(err)
	}
	tree, err := rtree.OpenSnapshot(m.rt.manifest, rtPg)
	if err != nil {
		return fail(snapErr(path, "%v", err))
	}
	db := assembleDB(store, m.domain, lo, indexes, reg, tree, opts)
	db.pagerMode = mode
	if mapping != nil {
		db.closer = mapping.Close
	} else {
		f.Close()
	}
	return db, nil
}

// assembleDB wires the parts Open decoded — the store, one index per
// shard of lo, the shared constraint registry and the helper R-tree —
// into a serving DB. opts only affect future mutations and reshards.
func assembleDB(store *uncertain.Store, domain Rect, lo *shardLayout, indexes []*core.UVIndex,
	reg *core.CRState, tree *rtree.Tree, opts *Options) *DB {
	bopts := opts.toBuildOptions()
	db := &DB{store: store, domain: domain, bopts: bopts, strategy: opts.layout(), egc: epoch.NewDomain(), cr: reg}
	db.topo = core.NewTopology(reg.Len(), bopts.RegionSamples)
	shapes := make([]core.IndexStats, len(indexes))
	for i, ix := range indexes {
		ix.SetReclaimDomain(db.egc)
		lo.shards[i].epoch.Store(&indexEpoch{index: ix})
		shapes[i] = ix.Stats()
	}
	tree.SetReclaimDomain(db.egc)
	db.tree.Store(tree)
	db.layout.Store(lo)
	db.built.Store(&BuildStats{Strategy: bopts.Strategy, N: store.Live(), Index: aggregateIndexStats(shapes)})
	return db
}
