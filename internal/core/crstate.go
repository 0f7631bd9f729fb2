package core

import (
	"fmt"
	"sort"
)

// CRState is the constraint bookkeeping of a UV-diagram engine: for
// every object its cr-object ids (the representation of its UV-cell)
// and the inverse map (for every object, who depends on it). It used to
// live inside each UVIndex; hoisting it out lets every spatial shard of
// one engine share a single copy — an object's cell representation is a
// property of the population, not of any shard's sub-grid — so a
// mutation updates the bookkeeping once instead of once per shard, and
// the per-shard work that remains is exactly the leaf surgery in the
// shards the object's cell reaches.
//
// Layout: NewCRState carves every reverse list out of one backing
// array of Σ|cr| entries, each a window with cap == len, and
// DecodeCRSets carves the constraint sets of a reopened index the same
// way. Because no window has spare capacity, the first append to a list
// (AddMember, Replace, Append) moves that one list to its own
// allocation and can never write into a neighbour's window. A moved
// window stays behind as dead space in its backing array, so the
// arrays retain at most the Σ|cr|·4 bytes they were made with (≈0.7 MB
// per direction at n = 8 000) for the life of the registry.
//
// Concurrency: CRState has no internal locking. The DB guards it with
// its store lock — writers hold it exclusively, SaveSnapshot holds it
// shared (it only reads).
type CRState struct {
	crOf [][]int32 // per object: its cr-object ids (cell representation)
	// revCR is the inverse of crOf: for each object j, the ids of the
	// objects whose cr-set contains j. On deleting j exactly those
	// objects can see their UV-cell grow, so they — and only they —
	// must be re-derived and re-inserted to keep leaf lists supersets
	// of the true overlaps.
	revCR [][]int32
}

// NewCRState builds the registry from constraint sets indexed by dense
// id (dead slots nil). It takes ownership of crSets. The reverse map is
// built by counting: one pass counts each id's dependents, a second
// places every dependent into its id's window of one shared array, in
// ascending dependent id — the order appending id by id gives.
func NewCRState(crSets [][]int32) *CRState {
	next := make([]int, len(crSets)) // per id: its dependent count, then where its next one goes
	for _, ids := range crSets {
		for _, j := range ids {
			next[j]++
		}
	}
	total := 0
	for j, c := range next {
		next[j] = total
		total += c
	}
	back := make([]int32, total)
	for i, ids := range crSets {
		for _, j := range ids {
			back[next[j]] = int32(i)
			next[j]++
		}
	}
	rev := make([][]int32, len(crSets))
	start := 0
	for j, end := range next { // each window now ends where the next starts
		if end > start {
			rev[j] = back[start:end:end]
		}
		start = end
	}
	return &CRState{crOf: crSets, revCR: rev}
}

// Len returns the size of the dense id space covered.
func (cr *CRState) Len() int { return len(cr.crOf) }

// Of returns object id's recorded cr-object ids (shared slice).
func (cr *CRState) Of(id int32) []int32 { return cr.crOf[id] }

// Dependents returns the ids of the objects whose cr-set contains id —
// exactly the objects whose UV-cell can grow if id is deleted. The
// slice is shared; callers must not modify it.
func (cr *CRState) Dependents(id int32) []int32 { return cr.revCR[id] }

// Append records the constraint set of a freshly inserted object. The
// id must be the next dense id.
func (cr *CRState) Append(id int32, crIDs []int32) error {
	if int(id) != len(cr.crOf) {
		return fmt.Errorf("core: constraint set for id %d out of order, want %d", id, len(cr.crOf))
	}
	cr.crOf = append(cr.crOf, crIDs)
	cr.revCR = append(cr.revCR, nil)
	cr.addRev(id, crIDs)
	return nil
}

// RemoveLast pops the most recently appended object's bookkeeping,
// undoing an Append on the insert rollback path.
func (cr *CRState) RemoveLast() {
	n := len(cr.crOf)
	if n == 0 {
		return
	}
	cr.dropRev(int32(n-1), cr.crOf[n-1])
	cr.crOf = cr.crOf[:n-1]
	cr.revCR = cr.revCR[:n-1]
}

// Drop unlinks deleted victims from both directions of the maps.
func (cr *CRState) Drop(victims []int32) {
	for _, v := range victims {
		cr.dropRev(v, cr.crOf[v])
		cr.crOf[v] = nil
		cr.revCR[v] = nil
	}
}

// AddMember appends a freshly inserted id to object a's recorded set —
// new ids are the dense maximum, so the sort order is preserved — and
// keeps the reverse map in step. The insert-repair path records a new
// tight constraint this way without a full Replace. Appending only
// TIGHTENS the representation (the covered region shrinks), so no leaf
// surgery is required afterwards.
func (cr *CRState) AddMember(a, id int32) {
	cr.crOf[a] = append(cr.crOf[a], id)
	cr.revCR[id] = append(cr.revCR[id], a)
}

// Strip removes the victims from object id's recorded set in place,
// preserving sort order, and reports whether anything was removed. It
// deliberately leaves the reverse map alone: Drop nils the victims'
// reverse entries wholesale, and a stripped set never re-references
// them. This is the no-derivation half of an output-sensitive delete —
// a live-ids-only representation is always a sound superset rep, so a
// dependent whose victims were not tight needs exactly this and no
// leaf-list recomputation beyond re-running the overlap tests.
func (cr *CRState) Strip(id int32, victims map[int32]bool) bool {
	s := cr.crOf[id]
	kept := s[:0]
	for _, v := range s {
		if !victims[v] {
			kept = append(kept, v)
		}
	}
	if len(kept) == len(s) {
		return false
	}
	cr.crOf[id] = kept
	return true
}

// Replace swaps object id's constraint set for a freshly derived one,
// keeping the inverse map in step.
func (cr *CRState) Replace(id int32, crIDs []int32) {
	cr.dropRev(id, cr.crOf[id])
	cr.crOf[id] = crIDs
	cr.addRev(id, crIDs)
}

// AffectedBy returns the union of the victims' dependents, minus the
// victims themselves, sorted ascending — the exact set of objects whose
// UV-cell can grow when the victims are deleted (deterministic
// re-insertion order keeps leaf lists reproducible).
func (cr *CRState) AffectedBy(victims []int32) []int32 {
	vic := make(map[int32]bool, len(victims))
	for _, v := range victims {
		vic[v] = true
	}
	set := make(map[int32]bool)
	for _, v := range victims {
		for _, a := range cr.revCR[v] {
			if !vic[a] {
				set[a] = true
			}
		}
	}
	out := make([]int32, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EqualCROf reports whether two registries record identical constraint
// sets (order-sensitive, as serialized). Open's legacy reader uses it to
// verify that per-shard streams carry one shared registry before
// unifying them.
func (cr *CRState) EqualCROf(other *CRState) bool {
	if len(cr.crOf) != len(other.crOf) {
		return false
	}
	for i, a := range cr.crOf {
		b := other.crOf[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// addRev records id in the reverse cr-map of every member of crIDs.
func (cr *CRState) addRev(id int32, crIDs []int32) {
	for _, j := range crIDs {
		cr.revCR[j] = append(cr.revCR[j], id)
	}
}

// dropRev removes id from the reverse cr-map of every member of crIDs.
func (cr *CRState) dropRev(id int32, crIDs []int32) {
	for _, j := range crIDs {
		list := cr.revCR[j]
		for k, v := range list {
			if v == id {
				list[k] = list[len(list)-1]
				cr.revCR[j] = list[:len(list)-1]
				break
			}
		}
	}
}
