package pager

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary page layouts used by the indexes. All integers are little
// endian; floats are IEEE-754 bits.

// LeafTuple is the <ID, MBC, pointer> tuple stored in UV-index and
// R-tree leaf pages (Section V-A): 4 + 3·8 + 8 = 36 bytes encoded.
type LeafTuple struct {
	ID      int32
	CX, CY  float64 // MBC center
	R       float64 // MBC radius
	Pointer uint64  // the object's id, the key of its record in the object store
}

// LeafTupleSize is the encoded size of a LeafTuple in bytes.
const LeafTupleSize = 4 + 8 + 8 + 8 + 8

// MaxLeafTuples is the most tuples one leaf page can hold, 2D or 3D:
// the page's count prefix is a uint16.
const MaxLeafTuples = 1<<16 - 1

// EncodeLeafTuples serializes tuples, prefixed by a uint16 count.
func EncodeLeafTuples(ts []LeafTuple) []byte {
	buf := make([]byte, 2+len(ts)*LeafTupleSize)
	binary.LittleEndian.PutUint16(buf, uint16(len(ts)))
	off := 2
	for _, t := range ts {
		binary.LittleEndian.PutUint32(buf[off:], uint32(t.ID))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(t.CX))
		binary.LittleEndian.PutUint64(buf[off+12:], math.Float64bits(t.CY))
		binary.LittleEndian.PutUint64(buf[off+20:], math.Float64bits(t.R))
		binary.LittleEndian.PutUint64(buf[off+28:], t.Pointer)
		off += LeafTupleSize
	}
	return buf
}

// LeafTupleCount validates a page written by EncodeLeafTuples and
// returns how many tuples it holds; LeafTupleAt then decodes any of
// them in place, without materializing the slice.
func LeafTupleCount(page []byte) (int, error) {
	if len(page) < 2 {
		return 0, fmt.Errorf("pager: leaf page too short (%d bytes)", len(page))
	}
	n := int(binary.LittleEndian.Uint16(page))
	if need := 2 + n*LeafTupleSize; len(page) < need {
		return 0, fmt.Errorf("pager: leaf page truncated: need %d bytes, have %d", need, len(page))
	}
	return n, nil
}

// LeafTupleAt decodes tuple i < LeafTupleCount(page).
func LeafTupleAt(page []byte, i int) LeafTuple {
	b := page[2+i*LeafTupleSize:]
	return LeafTuple{
		ID:      int32(binary.LittleEndian.Uint32(b)),
		CX:      math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		CY:      math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
		R:       math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
		Pointer: binary.LittleEndian.Uint64(b[28:]),
	}
}

// AppendLeafTuples parses a page written by EncodeLeafTuples,
// appending its tuples to dst, so a caller can decode into a buffer it
// reuses.
func AppendLeafTuples(dst []LeafTuple, page []byte) ([]LeafTuple, error) {
	n, err := LeafTupleCount(page)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, LeafTupleAt(page, i))
	}
	return dst, nil
}

// TuplesPerPage returns how many leaf tuples fit in one page of the
// given size.
func TuplesPerPage(pageSize int) int {
	return (pageSize - 2) / LeafTupleSize
}

// ObjectRecord is the full uncertainty information of one object as
// stored in the object store's pages: region plus pdf histogram bars.
type ObjectRecord struct {
	ID      int32
	CX, CY  float64
	R       float64
	Weights []float64
}

// objectRecordHeader is the fixed part of an object record: id, centre,
// radius and the bar count.
const objectRecordHeader = 4 + 24 + 2

// EncodeObjectRecord serializes an object record.
func EncodeObjectRecord(rec ObjectRecord) []byte {
	buf := make([]byte, objectRecordHeader+len(rec.Weights)*8)
	binary.LittleEndian.PutUint32(buf, uint32(rec.ID))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(rec.CX))
	binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(rec.CY))
	binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(rec.R))
	binary.LittleEndian.PutUint16(buf[28:], uint16(len(rec.Weights)))
	off := 30
	for _, w := range rec.Weights {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(w))
		off += 8
	}
	return buf
}

// ObjectRecordLen returns the encoded length of the record b starts
// with, or 0 when no record starts there: b is shorter than a record
// header, or its bar count is zero — a record has at least one bar, so
// zero bytes are the padding between records.
func ObjectRecordLen(b []byte) int {
	if len(b) < objectRecordHeader {
		return 0
	}
	n := int(binary.LittleEndian.Uint16(b[28:]))
	if n == 0 {
		return 0
	}
	return objectRecordHeader + 8*n
}

// DecodeObjectRecord parses a record written by EncodeObjectRecord.
func DecodeObjectRecord(page []byte) (ObjectRecord, error) {
	rec, bars, err := DecodeObjectRecordHeader(page)
	if err == nil {
		rec.Weights = DecodeBars(bars)
	}
	return rec, err
}

// DecodeBars decodes the encoded bars DecodeObjectRecordHeader returns.
func DecodeBars(bars []byte) []float64 {
	w := make([]float64, len(bars)/8)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(bars[8*i:]))
	}
	return w
}

// DecodeObjectRecordHeader is DecodeObjectRecord without decoding the
// bars: rec.Weights is nil and bars holds the record's encoded bars, 8
// bytes each (it aliases page). A reader that has seen the same bar
// bytes before can reuse what it made of them.
func DecodeObjectRecordHeader(page []byte) (rec ObjectRecord, bars []byte, err error) {
	if len(page) < objectRecordHeader {
		return rec, nil, fmt.Errorf("pager: object record too short (%d bytes)", len(page))
	}
	rec.ID = int32(binary.LittleEndian.Uint32(page))
	rec.CX = math.Float64frombits(binary.LittleEndian.Uint64(page[4:]))
	rec.CY = math.Float64frombits(binary.LittleEndian.Uint64(page[12:]))
	rec.R = math.Float64frombits(binary.LittleEndian.Uint64(page[20:]))
	n := int(binary.LittleEndian.Uint16(page[28:]))
	if len(page) < objectRecordHeader+8*n {
		return rec, nil, fmt.Errorf("pager: object record truncated")
	}
	return rec, page[objectRecordHeader : objectRecordHeader+8*n], nil
}
