package uvdiagram

import (
	"encoding/binary"
	"fmt"
)

// SnapshotParts locates the parts of a snapshot file that tests damage
// or compare, as byte offsets into the file.
type SnapshotParts struct {
	Dead        int // the first tombstone flag
	Registry    int // object 0's cr-set: a u32 count, then the ids; object 1's follows
	StorePages  int // the object page count (version 6 only)
	Objects     int // the object pages
	ObjectPages int // how many object pages there are
	Index       int // the first shard section: shard and R-tree pages run from here to the end
}

// SnapshotPartsOf parses a snapshot file's header and metadata.
func SnapshotPartsOf(data []byte) (SnapshotParts, error) {
	if len(data) < 16 {
		return SnapshotParts{}, fmt.Errorf("%d bytes hold no snapshot header", len(data))
	}
	metaLen := binary.LittleEndian.Uint64(data[8:])
	if metaLen > uint64(len(data)-16) {
		return SnapshotParts{}, fmt.Errorf("metadata of %d bytes exceeds the file", metaLen)
	}
	m, err := parseSnapMeta(data[16:16+metaLen], binary.LittleEndian.Uint32(data[4:]), 16, int64(len(data)))
	if err != nil {
		return SnapshotParts{}, err
	}
	p := SnapshotParts{
		Dead:        16 + 4*8 + 2*4 + 8*(len(m.xs)+len(m.ys)) + 4, // domain, gx/gy, cuts, n
		Objects:     int(m.storeOff),
		ObjectPages: m.storePages,
		Index:       int(m.shards[0].off),
	}
	p.Registry = p.Dead + m.n
	p.StorePages = p.Registry
	for _, ids := range m.crSets {
		p.StorePages += 4 + 4*len(ids)
	}
	p.StorePages += 4 // the object page size comes first
	return p, nil
}
