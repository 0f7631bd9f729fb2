package uvdiagram_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// TestBuildSnapshotDigests pins the bytes a build writes for the three
// datasets the serving benchmark builds: datagen.Uniform at n = 8 000
// and 4 000 and datagen.Skewed (σ 2 000) at n = 4 000, seed 20100301,
// side 10 000, Shards: 4. Each digest is the first 8 bytes of the
// SaveSnapshot file's SHA-256. Every cr-set, leaf list, R-tree page and
// object record feeds the file, so a derivation change that moves any
// of them fails here, which is the bar a pure performance change to
// Build or Compact must clear.
//
// The digests are of amd64 builds: other architectures may fuse
// multiply-adds and move a bound by an ulp.
func TestBuildSnapshotDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-size builds")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point (no fused multiply-add)")
	}
	const seed, side = 20100301, 10000
	for _, tc := range []struct {
		name   string
		n      int
		sigma  float64 // 0: Uniform
		digest string
	}{
		{"uniform-8000", 8000, 0, "455d2d0d01b02f11"},
		{"skewed-4000", 4000, 2000, "0afbcf9be49d431d"},
		{"uniform-4000", 4000, 0, "1d365fcd385b84ec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := datagen.Config{N: tc.n, Side: side, Diameter: datagen.DefaultDiameter, Seed: seed}
			objs := datagen.Uniform(cfg)
			if tc.sigma > 0 {
				objs = datagen.Skewed(cfg, tc.sigma)
			}
			db, err := uvdiagram.Build(objs, cfg.Domain(), &uvdiagram.Options{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			path := filepath.Join(t.TempDir(), "db.uv5")
			if err := db.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:8]); got != tc.digest {
				t.Errorf("snapshot digest %s, want %s", got, tc.digest)
			}
		})
	}
}
