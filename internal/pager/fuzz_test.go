package pager

import (
	"bytes"
	"math"
	"testing"
)

func FuzzDecodeLeafTuples(f *testing.F) {
	f.Add(EncodeLeafTuples([]LeafTuple{{ID: 1, CX: 2, CY: 3, R: 4, Pointer: 5}}))
	f.Add(EncodeLeafTuples(nil))
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := AppendLeafTuples(nil, data)
		if err != nil {
			return
		}
		// Round trip: decoded tuples re-encode to a decodable page with
		// identical content.
		out, err := AppendLeafTuples(nil, EncodeLeafTuples(ts))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(out) != len(ts) {
			t.Fatalf("length changed: %d -> %d", len(ts), len(out))
		}
		for i := range ts {
			// Compare bit patterns (NaN-safe).
			a := EncodeLeafTuples(ts[i : i+1])
			b := EncodeLeafTuples(out[i : i+1])
			if !bytes.Equal(a, b) {
				t.Fatalf("tuple %d changed", i)
			}
		}
	})
}

func FuzzDecodeLeafTuples3(f *testing.F) {
	f.Add(EncodeLeafTuples3([]LeafTuple3{{ID: 1, CX: 2, CY: 3, CZ: 4, R: 5, Pointer: 6}}))
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeLeafTuples3(data)
		if err != nil {
			return
		}
		out, err := DecodeLeafTuples3(EncodeLeafTuples3(ts))
		if err != nil || len(out) != len(ts) {
			t.Fatalf("re-decode: %v (%d -> %d)", err, len(ts), len(out))
		}
	})
}

func FuzzDecodeObjectRecord(f *testing.F) {
	f.Add(EncodeObjectRecord(ObjectRecord{ID: 3, CX: 1, CY: 2, R: 3, Weights: []float64{0.5, 0.5}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeObjectRecord(data)
		hdr, bars, herr := DecodeObjectRecordHeader(data)
		if (err == nil) != (herr == nil) {
			t.Fatalf("DecodeObjectRecord error %v, header-only error %v", err, herr)
		}
		if err != nil {
			return
		}
		if hdr.ID != rec.ID || math.Float64bits(hdr.CX) != math.Float64bits(rec.CX) ||
			math.Float64bits(hdr.CY) != math.Float64bits(rec.CY) || math.Float64bits(hdr.R) != math.Float64bits(rec.R) ||
			len(bars) != 8*len(rec.Weights) {
			t.Fatalf("header-only decode %+v with %d bar bytes, full decode %+v", hdr, len(bars), rec)
		}
		out, err := DecodeObjectRecord(EncodeObjectRecord(rec))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out.ID != rec.ID || len(out.Weights) != len(rec.Weights) {
			t.Fatalf("record changed: %+v -> %+v", rec, out)
		}
	})
}
