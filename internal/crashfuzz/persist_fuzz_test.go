package crashfuzz

import (
	"testing"

	"repro/internal/config"
)

// FuzzPersistPipeline is the native fuzz entry point for the
// serial-vs-batched persist differential:
//
//	go test -fuzz=FuzzPersistPipeline -fuzztime=30s ./internal/crashfuzz
//
// It explores three dimensions: the case seed (machine shape, trace,
// derived crash point), a crash-point selector sliding the crash across
// every operation boundary, and a batching selector controlling the
// flush depth (low byte) and the mid-batch split — how many leading
// blocks of the first unexecuted op commit before the crash, landing it
// between the batch's commit steps (high bits). Every input runs the
// WTSC/WTBC differential oracle: both eviction policies execute the
// trace serially and batched, and any divergence in crash-image bytes, statistics, recovery outcome or
// recovered plaintext fails.
func FuzzPersistPipeline(f *testing.F) {
	// Corpus spans both block sizes, both crash modes, explicit and
	// derived crash points, and explicit and derived batching knobs
	// (selector 0 keeps the derived value).
	f.Add(int64(1), uint64(0), uint64(0))
	f.Add(int64(42), uint64(3), uint64(5))
	f.Add(int64(-7), uint64(8), uint64(0x207))
	f.Add(int64(1000), uint64(0), uint64(1))

	f.Fuzz(func(t *testing.T, seed int64, crashSel, batchSel uint64) {
		c := DeriveCase(seed)
		c.Schemes = []config.Scheme{config.ThothWTSC, config.ThothWTBC}
		if crashSel != 0 {
			c.CrashIdx = int(crashSel % uint64(len(c.Trace)+1))
		}
		p := persistParamsFor(c)
		if d := batchSel & 0xff; d != 0 {
			p.Depth = int(d)
		}
		if s := batchSel >> 8; s != 0 {
			if avail := splitBlocksAvail(c); avail > 0 {
				p.Split = int(s % uint64(avail+1))
			}
		}
		res := persistDiffWith(c, p)
		if res.Failed() {
			t.Fatalf("\n%s", res)
		}
	})
}
