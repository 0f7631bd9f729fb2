package uncertain

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// Store keeps the full uncertainty information of every object (region
// and pdf histogram) as a record on a simulated disk, mirroring the
// paper's setup where "the uncertainty information about the objects is
// stored in the disk". Records are packed into the pager's pages (see
// layout), so one 4 KB page holds 21 records of the default 20 bars.
// Fetch goes through the pager and therefore counts toward
// object-retrieval I/O; construction-time code uses the in-memory
// accessors, which do not. The record is the one source of an object's
// pdf: appended and opened objects alike hold the pdf made from their
// record's bars, one per distinct bar list (see decode).
//
// Deletion is a tombstone: the dense id space 0..Len()-1 never shrinks
// or renumbers (leaf tuples, cr-sets and R-tree entries address objects
// by id), a deleted object merely stops being live. Dead slots stay
// addressable through Dense/At so geometric code can keep positional
// id lookups; live-only consumers iterate with All or check Alive.
//
// The population is published as an immutable View behind an atomic
// pointer so lock-free queries read a CONSISTENT population snapshot
// while mutations run: a mutator builds the next view (appends extend
// shared backing arrays past every published length; Delete copies the
// tombstone array) and publishes it with one pointer store. Mutators
// themselves must be externally serialized (the DB's store mutex does
// this); only the reader side is synchronization-free.
type Store struct {
	pg  *pager.Pager
	hdr atomic.Pointer[View]
	// Append's position: lay places the next record, tail is the page
	// lay's current page was allocated as. A store that did not write its
	// last page itself (OpenStoreSnapshot) starts a fresh page on the
	// next Append.
	lay  layout
	tail pager.PageID
	// pdfs interns one pdf per distinct bar list the store's records
	// hold, keyed by the encoded bars; last is the pdf of lastBars, the
	// bars of the most recent record decoded. lastBars aliases a page
	// or an appended record, neither of which is ever rewritten.
	pdfs     map[string]*HistogramPDF
	last     *HistogramPDF
	lastBars []byte
	// shapes lists the interned pdfs in interning order, each at its
	// slot. It is append-only, so views share its backing array.
	shapes []*HistogramPDF
}

// View is one immutable population snapshot. All read accessors exist
// on both Store (loading the current view per call) and View (pinning
// one snapshot across a multi-step read, the lock-free query path).
type View struct {
	pg    *pager.Pager
	at    []recLoc // where each object's record lives, indexed like objs
	objs  []Object
	dead  []bool // tombstones, indexed like objs
	nDead int
	// shapes is the store's shape list when the view was published and
	// shares the live objects holding each shape, by slot. Every
	// mutation publishes fresh counts, so a view's counts are a function
	// of its live set alone.
	shapes []*HistogramPDF
	shares []int32
}

// recLoc addresses one record: its page and its byte offset there.
type recLoc struct {
	page pager.PageID
	off  uint32
}

// layout is the store's packing rule, written down once: records go in
// id order, each at the next 8-byte boundary of the current page, or at
// offset 0 of a fresh page when it does not fit there. The bytes after
// a page's last record stay zero, which is how OpenStoreSnapshot tells
// where a page's records end (pager.ObjectRecordLen). Records start on
// 8-byte boundaries, so an in-place append shares no machine word with
// a record a reader may be loading.
type layout struct {
	pageSize int
	pages    int // pages begun
	used     int // bytes taken in the current page, a multiple of 8
}

// place returns the offset of the next record, n bytes long, and
// whether it begins a fresh page.
func (l *layout) place(n int) (off int, fresh bool) {
	if l.pages == 0 || l.used+n > l.pageSize {
		l.pages++
		l.used = 0
		fresh = true
	}
	off = l.used
	l.used += (n + 7) &^ 7
	return off, fresh
}

// NewStore appends every object's record to an empty store over pg and
// returns the store. Objects must have dense IDs 0..n-1 and each record
// must fit one page.
func NewStore(objs []Object, pg *pager.Pager) (*Store, error) {
	s := &Store{pg: pg, lay: layout{pageSize: pg.PageSize()}, pdfs: make(map[string]*HistogramPDF)}
	n := len(objs)
	v := &View{pg: pg, at: make([]recLoc, 0, n), objs: make([]Object, 0, n), dead: make([]bool, 0, n)}
	for _, o := range objs {
		if err := s.add(v, o); err != nil {
			return nil, err
		}
	}
	s.publishCounted(v)
	return s, nil
}

// publishCounted counts v's live objects per shape and publishes v.
func (s *Store) publishCounted(v *View) {
	v.shapes, v.shares = s.shapes, make([]int32, len(s.shapes))
	for i, o := range v.objs {
		if !v.dead[i] {
			v.shares[o.PDF.shape.Load().slot]++
		}
	}
	s.hdr.Store(v)
}

// sharesWith returns v's shape counts, extended to n shapes, with delta
// added to pdf's: a fresh slice, as no two published views share one.
func (v *View) sharesWith(n int, pdf *HistogramPDF, delta int32) []int32 {
	shares := make([]int32, n)
	copy(shares, v.shares)
	shares[pdf.shape.Load().slot] += delta
	return shares
}

func encodeObject(o Object, pageSize int) ([]byte, error) {
	if o.PDF.Bins() == 0 {
		return nil, fmt.Errorf("uncertain: object %d has a pdf of no bars", o.ID)
	}
	rec := pager.ObjectRecord{
		ID: o.ID,
		CX: o.Region.C.X, CY: o.Region.C.Y, R: o.Region.R,
		Weights: o.PDF.Weights(),
	}
	buf := pager.EncodeObjectRecord(rec)
	if len(buf) > pageSize {
		return nil, fmt.Errorf("uncertain: object %d record (%d bytes, %d pdf bars) exceeds the %d-byte page",
			o.ID, len(buf), o.PDF.Bins(), pageSize)
	}
	return buf, nil
}

// decode returns the object a record holds. Its pdf is the store's one
// pdf for the record's bars: the bars are decoded and normalized only
// the first time the store sees them, and a run of records with the
// previous record's bars — a whole population, when every object shares
// one pdf — costs one comparison. Normalization is idempotent, so the
// pdf is bitwise the one that was encoded.
func (s *Store) decode(rec []byte) (Object, error) {
	hdr, bars, err := pager.DecodeObjectRecordHeader(rec)
	if err != nil {
		return Object{}, err
	}
	if s.last == nil || !bytes.Equal(bars, s.lastBars) {
		pdf, ok := s.pdfs[string(bars)]
		if !ok {
			if pdf, err = NewHistogramPDF(pager.DecodeBars(bars)); err != nil {
				return Object{}, err
			}
			pdf.shape.Store(&pdfShape{slot: int32(len(s.shapes))})
			s.shapes = append(s.shapes, pdf)
			s.pdfs[string(bars)] = pdf
		}
		s.last, s.lastBars = pdf, bars
	}
	return Object{ID: hdr.ID, Region: geom.Circle{C: geom.Pt(hdr.CX, hdr.CY), R: hdr.R}, PDF: s.last}, nil
}

// OpenStoreSnapshot reattaches a store to a pager whose pages hold n
// object records packed as layout places them (Pack writes such pages;
// so did the one-record-per-page snapshots of earlier releases, whose
// padding is zero too). Objects are decoded from the pages themselves —
// no re-encoding or page writes happen, so the pager can serve the
// pages straight off a read-only mapping — and objects with the same bars
// share one decoded pdf. dead marks tombstoned slots (nil for none).
func OpenStoreSnapshot(pg *pager.Pager, n int, dead []bool) (*Store, error) {
	if dead == nil {
		dead = make([]bool, n)
	} else if len(dead) != n {
		return nil, fmt.Errorf("uncertain: snapshot tombstone array of %d, want %d", len(dead), n)
	}
	s := &Store{pg: pg, lay: layout{pageSize: pg.PageSize()}, pdfs: make(map[string]*HistogramPDF)}
	v := &View{pg: pg, at: make([]recLoc, n), objs: make([]Object, n), dead: dead}
	npages := pg.NumPages()
	p, off := 0, 0
	for i := 0; i < n; i++ {
		if off > 0 && pager.ObjectRecordLen(pg.Peek(pager.PageID(p))[min(off, pg.PageSize()):]) == 0 {
			p, off = p+1, 0 // the rest of page p is padding
		}
		if p >= npages {
			return nil, fmt.Errorf("uncertain: snapshot store of %d pages holds only %d of %d objects", npages, i, n)
		}
		page := pg.Peek(pager.PageID(p))[off:]
		size := pager.ObjectRecordLen(page)
		if size == 0 || size > len(page) {
			return nil, fmt.Errorf("uncertain: snapshot object %d: no record fits page %d at offset %d", i, p, off)
		}
		o, err := s.decode(page[:size])
		if err != nil {
			return nil, fmt.Errorf("uncertain: snapshot object %d (page %d, offset %d): %w", i, p, off, err)
		}
		if int(o.ID) != i {
			return nil, fmt.Errorf("uncertain: snapshot page %d, offset %d holds object %d, want %d", p, off, o.ID, i)
		}
		v.at[i] = recLoc{page: pager.PageID(p), off: uint32(off)}
		v.objs[i] = o
		if dead[i] {
			v.nDead++
		}
		off += (size + 7) &^ 7
	}
	if p != npages-1 {
		return nil, fmt.Errorf("uncertain: snapshot store holds %d pages, its %d objects fill %d", npages, n, p+1)
	}
	s.publishCounted(v)
	return s, nil
}

// Pack lays the view's records out afresh in pages of pageSize bytes,
// as layout places them, and hands each page, zero-padded, to emit; it
// returns the number of pages. The store's pages are read without I/O
// accounting. Packing is a function of the records alone, so a store
// reopened from Pack's pages packs to the same bytes. pageSize must be
// at least the store's page size.
func (v *View) Pack(pageSize int, emit func(page []byte) error) (int, error) {
	lay := layout{pageSize: pageSize}
	page := make([]byte, pageSize)
	for i := range v.at {
		rec := v.record(i)
		off, fresh := lay.place(len(rec))
		if fresh && i > 0 {
			if err := emit(page); err != nil {
				return 0, err
			}
			clear(page)
		}
		copy(page[off:], rec)
	}
	if len(v.at) > 0 {
		if err := emit(page); err != nil {
			return 0, err
		}
	}
	return lay.pages, nil
}

// record returns object i's encoded record, without I/O accounting.
func (v *View) record(i int) []byte {
	b := v.pg.Peek(v.at[i].page)[v.at[i].off:]
	return b[:pager.ObjectRecordLen(b)]
}

// View returns the current population snapshot. A reader that must see
// one consistent population across several calls (candidate filter +
// fetch, for instance) captures a view once and reads through it.
func (s *Store) View() *View { return s.hdr.Load() }

// Len returns the size of the dense id space: every object ever stored,
// dead or alive. The next Append must use ID Len(); deleted ids are
// never reused. Use Live for the population count.
func (s *Store) Len() int { return s.hdr.Load().Len() }

// Len is Store.Len on one snapshot.
func (v *View) Len() int { return len(v.objs) }

// Live returns the number of live (non-deleted) objects.
func (s *Store) Live() int { return s.hdr.Load().Live() }

// Live is Store.Live on one snapshot.
func (v *View) Live() int { return len(v.objs) - v.nDead }

// Share returns how many of the view's live objects hold pdf, the
// store's one interned pdf for their bar list. A pdf the store did not
// intern is held by none.
func (v *View) Share(pdf *HistogramPDF) int {
	if sh := pdf.shape.Load(); sh != nil && int(sh.slot) < len(v.shapes) && v.shapes[sh.slot] == pdf {
		return int(v.shares[sh.slot])
	}
	return 0
}

// Alive reports whether id names a live object.
func (s *Store) Alive(id int32) bool { return s.hdr.Load().Alive(id) }

// Alive is Store.Alive on one snapshot.
func (v *View) Alive(id int32) bool {
	return id >= 0 && int(id) < len(v.objs) && !v.dead[id]
}

// Delete tombstones object id. The slot stays addressable through
// Dense/At (index structures may still hold geometric references) but
// the object no longer appears in All and can no longer be Fetched.
func (s *Store) Delete(id int32) error {
	v := s.hdr.Load()
	if id < 0 || int(id) >= len(v.objs) {
		return fmt.Errorf("uncertain: delete of unknown object %d", id)
	}
	if v.dead[id] {
		return fmt.Errorf("uncertain: object %d already deleted", id)
	}
	dead := make([]bool, len(v.dead))
	copy(dead, v.dead)
	dead[id] = true
	s.hdr.Store(&View{pg: v.pg, at: v.at, objs: v.objs, dead: dead, nDead: v.nDead + 1,
		shapes: v.shapes, shares: v.sharesWith(len(v.shapes), v.objs[id].PDF, -1)})
	return nil
}

// All returns the live objects (no I/O accounted). With no deletions it
// is the shared dense slice (callers must not modify it); once objects
// have been deleted it is a fresh filtered copy, so positions no longer
// equal ids — use Dense or At for positional access by id.
func (s *Store) All() []Object { return s.hdr.Load().All() }

// All is Store.All on one snapshot.
func (v *View) All() []Object {
	if v.nDead == 0 {
		return v.objs
	}
	out := make([]Object, 0, v.Live())
	for i := range v.objs {
		if !v.dead[i] {
			out = append(out, v.objs[i])
		}
	}
	return out
}

// Tombstones returns the view's tombstone flags indexed by dense id.
// The slice is shared; callers must not modify it.
func (v *View) Tombstones() []bool { return v.dead }

// Dense returns the raw dense slice, dead slots included, so that
// objs[id] addresses object id. Callers must not modify it and must
// check Alive before treating an entry as part of the population.
func (s *Store) Dense() []Object { return s.hdr.Load().objs }

// Dense is Store.Dense on one snapshot.
func (v *View) Dense() []Object { return v.objs }

// At returns object i from memory (no I/O accounted), whether or not it
// is live: index maintenance needs the geometry of tombstoned slots.
func (s *Store) At(i int) Object { return s.hdr.Load().objs[i] }

// At is Store.At on one snapshot.
func (v *View) At(i int) Object { return v.objs[i] }

// Pages returns how many distinct pages hold the records of ids: the
// pages a query fetching them touches. Quadratic in len(ids), meant for
// one query's candidates.
func (v *View) Pages(ids []int32) int64 {
	var n int64
	for i, id := range ids {
		p := v.at[id].page
		if !slices.ContainsFunc(ids[:i], func(prev int32) bool { return v.at[prev].page == p }) {
			n++
		}
	}
	return n
}

// Fetch reads object id's record from disk (one page read), decodes its
// header and checks that the record is id's. It is the query-time path,
// so object-retrieval I/O is accounted as the paper does; the pdf is the
// view's, the one the store interned for the record's bars.
func (s *Store) Fetch(id int32) (Object, error) { return s.hdr.Load().Fetch(id) }

// Fetch is Store.Fetch on one snapshot.
func (v *View) Fetch(id int32) (Object, error) {
	if id < 0 || int(id) >= len(v.at) {
		return Object{}, fmt.Errorf("uncertain: fetch of unknown object %d", id)
	}
	if v.dead[id] {
		return Object{}, fmt.Errorf("uncertain: fetch of deleted object %d", id)
	}
	loc := v.at[id]
	rec, _, err := pager.DecodeObjectRecordHeader(v.pg.Read(loc.page)[loc.off:])
	if err != nil {
		return Object{}, fmt.Errorf("uncertain: object %d: %w", id, err)
	}
	if rec.ID != id {
		return Object{}, fmt.Errorf("uncertain: page %d, offset %d holds object %d, want %d", loc.page, loc.off, rec.ID, id)
	}
	return Object{
		ID:     rec.ID,
		Region: geom.Circle{C: geom.Pt(rec.CX, rec.CY), R: rec.R},
		PDF:    v.objs[id].PDF,
	}, nil
}

// Pager exposes the underlying pager for I/O accounting.
func (s *Store) Pager() *pager.Pager { return s.pg }

// Append adds a new object's record to the store: into the unused end
// of the last page when it fits there, else onto a fresh page. Its ID
// must be the next dense id (current Len). Supports the incremental-
// update extension of the UV-index. The stored object is the record's
// decode, so objects with equal bars share one pdf whether they were
// appended or opened.
//
// The append extends the current view's backing arrays — and the last
// page — in place: no published view's length covers the appended slot,
// and no published record covers the appended bytes, so concurrent
// snapshot readers never observe the write.
func (s *Store) Append(o Object) error {
	v := s.hdr.Load()
	nv := &View{pg: v.pg, at: v.at, objs: v.objs, dead: v.dead, nDead: v.nDead}
	if err := s.add(nv, o); err != nil {
		return err
	}
	nv.shapes = s.shapes
	nv.shares = v.sharesWith(len(s.shapes), nv.objs[o.ID].PDF, 1)
	s.hdr.Store(nv)
	return nil
}

// add writes o's record after the store's last one and appends the
// stored object to v's arrays, in place: v is not published yet. Its
// shape counts are left to the caller.
func (s *Store) add(v *View, o Object) error {
	if int(o.ID) != len(v.objs) {
		return fmt.Errorf("uncertain: appended object has ID %d, want %d", o.ID, len(v.objs))
	}
	rec, err := encodeObject(o, s.pg.PageSize())
	if err != nil {
		return err
	}
	stored, err := s.decode(rec)
	if err != nil {
		return fmt.Errorf("uncertain: object %d: %w", o.ID, err)
	}
	off, fresh := s.lay.place(len(rec))
	if fresh {
		s.tail = s.pg.Alloc(rec)
	} else {
		s.pg.WriteAt(s.tail, off, rec)
	}
	v.at = append(v.at, recLoc{page: s.tail, off: uint32(off)})
	v.objs = append(v.objs, stored)
	v.dead = append(v.dead, false)
	return nil
}

// RemoveLast pops the most recently appended object, undoing an Append
// whose follow-up index insertion failed (the insert rollback path).
// The truncated view gets FRESH backing arrays, and the layout keeps
// the removed record's bytes, so the next Append writes after them: a
// later Append must never rewrite a slot, or record bytes, that an
// older, longer view still publishes.
func (s *Store) RemoveLast() error {
	v := s.hdr.Load()
	n := len(v.objs)
	if n == 0 {
		return fmt.Errorf("uncertain: RemoveLast on empty store")
	}
	nv := &View{
		pg:     v.pg,
		at:     append([]recLoc(nil), v.at[:n-1]...),
		objs:   append([]Object(nil), v.objs[:n-1]...),
		dead:   append([]bool(nil), v.dead[:n-1]...),
		nDead:  v.nDead,
		shapes: v.shapes,
		shares: v.sharesWith(len(v.shapes), v.objs[n-1].PDF, -1),
	}
	if v.dead[n-1] {
		nv.nDead--
		nv.shares[v.objs[n-1].PDF.shape.Load().slot]++
	}
	s.hdr.Store(nv)
	return nil
}
