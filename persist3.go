package uvdiagram

import (
	"fmt"
	"io"

	"uvdiagram/internal/core3"
	"uvdiagram/internal/uncertain3"
	"uvdiagram/internal/wire"
)

// 3D database persistence, mirroring the 2D Save/Load pair: objects
// (regions + shell pdfs), then the octree structure.

const (
	db3Magic   = 0x55564433 // "UVD3"
	db3Version = 1
	// db3MinObjectBytes is the smallest encoding of one object (centre,
	// radius, bin count of a nil pdf): it bounds the object count against
	// the bytes actually present.
	db3MinObjectBytes = 4*8 + 4
)

// Save serializes the 3D database (objects + octree) to w.
func (db *DB3) Save(w io.Writer) error {
	var b wire.Buffer
	b.U32(db3Magic)
	b.U32(db3Version)
	b.U32(uint32(len(db.objs)))
	for _, o := range db.objs {
		for _, v := range []float64{o.Region.C.X, o.Region.C.Y, o.Region.C.Z, o.Region.R} {
			b.F64(v)
		}
		var ws []float64
		if o.PDF != nil {
			ws = o.PDF.Weights()
		}
		b.U32(uint32(len(ws)))
		for _, wgt := range ws {
			b.F64(wgt)
		}
	}
	db.index.Save(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// Load3 reopens a 3D database written by Save.
func Load3(r io.Reader) (*DB3, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("uvdiagram: reading 3D database: %w", err)
	}
	rd := wire.NewReader(data)
	magic, version, n := rd.U32(), rd.U32(), int(rd.U32())
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("uvdiagram: reading 3D header: %w", err)
	}
	if magic != db3Magic {
		return nil, fmt.Errorf("uvdiagram: not a 3D UV-diagram database stream")
	}
	if version != db3Version {
		return nil, fmt.Errorf("uvdiagram: unsupported 3D version %d", version)
	}
	if n <= 0 || n > snapMaxObjects || n > rd.Remaining()/db3MinObjectBytes {
		return nil, fmt.Errorf("uvdiagram: implausible 3D object count %d", n)
	}
	objs := make([]Object3, n)
	for i := range objs {
		x, y, z, rad := rd.F64(), rd.F64(), rd.F64(), rd.F64()
		bins := int(rd.U32())
		if bins < 0 || bins > 4096 {
			return nil, fmt.Errorf("uvdiagram: 3D object %d has a pdf of %d bins", i, bins)
		}
		ws := make([]float64, bins)
		for k := range ws {
			ws[k] = rd.F64()
		}
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("uvdiagram: reading 3D object %d: %w", i, err)
		}
		var pdf *PDF3
		if bins > 0 {
			if pdf, err = uncertain3.NewPDF3(ws); err != nil {
				return nil, fmt.Errorf("uvdiagram: 3D object %d: %w", i, err)
			}
		}
		objs[i] = NewObject3(int32(i), x, y, z, rad, pdf)
	}
	index, err := core3.LoadOctIndex(rd, objs)
	if err != nil {
		return nil, err
	}
	return &DB3{
		objs:   objs,
		domain: index.Domain(),
		index:  index,
		built:  BuildStats3{N: n, Index: index.Stats()},
	}, nil
}
