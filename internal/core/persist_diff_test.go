// The batched-persist sweep lives in an external test package because
// the crashfuzz harness imports the public repro facade, which itself
// wraps internal/core — an in-package test would close an import cycle.
package core_test

import (
	"runtime"
	"testing"

	"repro/internal/crashfuzz"
)

// TestPersistPipelineDifferential is the acceptance sweep for batched
// persistence: 200 seeded workloads (the DeriveCase
// distribution mixes uniform and adversarial crash points, both block
// sizes, and scheme mixes), each executed serially through System.Write
// and batched through System.PersistBatch with seed-derived batch depths and mid-batch crash splits. Every pair
// must produce byte-identical crash images, equal statistics snapshots,
// the same recovery outcome, byte-identical post-recovery images, and
// identical recovered plaintext for every acknowledged block. Wired
// into `make ci` via the persist-diff target (and the ordinary
// test/race lanes).
func TestPersistPipelineDifferential(t *testing.T) {
	const seeds = 200
	sw := crashfuzz.SweepWith(1, seeds, runtime.GOMAXPROCS(0), func(seed int64) *crashfuzz.Result {
		return crashfuzz.RunPersistPipeline(seed)
	})
	if sw.Cases != seeds {
		t.Fatalf("sweep ran %d cases, want %d", sw.Cases, seeds)
	}
	if sw.Failed() {
		t.Fatalf("\n%s", sw)
	}
}
