package rnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
)

// TestRNNDigest pins the reverse-NN outputs on two 2 000-object
// datasets (datagen.Uniform and datagen.Skewed σ 2 000, side 10 000,
// seed 20100301) over a bulk-loaded R-tree. For 150 seeded query points
// with query radius {0, 5, 40}[i%3], the hash covers the ids and Stats
// of PossibleRNNUncertain; every 10th query also hashes Query's ids and
// probabilities. Each digest is the first 8 bytes of the SHA-256, so a
// change to the cutoff sweep, the candidate walk, the verification or
// the integration that moves any answer, count or bit fails here.
//
// The digests are of amd64 builds: other architectures may fuse
// multiply-adds and move a bound by an ulp.
func TestRNNDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point (no fused multiply-add)")
	}
	const seed, side = 20100301, 10000
	for _, tc := range []struct {
		name   string
		sigma  float64 // 0: Uniform
		digest string
	}{
		{"uniform", 0, "20286dec46e77aeb"},
		{"skewed", 2000, "bb8694d08cbfd511"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := datagen.Config{N: 2000, Side: side, Seed: seed}
			objs := datagen.Uniform(cfg)
			if tc.sigma > 0 {
				objs = datagen.Skewed(cfg, tc.sigma)
			}
			items := make([]rtree.Item, len(objs))
			for i, o := range objs {
				items[i] = rtree.Item{ID: o.ID, MBC: o.Region}
			}
			tree := rtree.BulkLoad(items, rtree.DefaultFanout, pager.New(0))

			h := sha256.New()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 150; i++ {
				q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
				qr := []float64{0, 5, 40}[i%3]
				ids, st := PossibleRNNUncertain(objs, tree, geom.Circle{C: q, R: qr}, nil)
				for _, id := range ids {
					putFloat(h, float64(id))
				}
				for _, v := range []float64{st.Cutoff, float64(st.Candidates), float64(st.PoolSize), float64(st.Answers)} {
					putFloat(h, v)
				}
				if i%10 == 0 {
					ans, _ := Query(objs, tree, q, nil)
					for _, a := range ans {
						putFloat(h, float64(a.ID))
						putFloat(h, a.Prob)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != tc.digest {
				t.Errorf("RNN digest %s, want %s", got, tc.digest)
			}
		})
	}
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
