package crashfuzz

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// TestPersistDiffCleanSeeds runs the serial-vs-batched persist
// differential over a handful of derived cases; any divergence is a
// PersistBatch bug (the 200-seed sweep lives in
// internal/core/persist_diff_test.go, this pins the oracle from the
// harness side).
func TestPersistDiffCleanSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if res := RunPersistPipeline(seed); res.Failed() {
			t.Fatalf("seed %d:\n%s", seed, res)
		}
	}
}

// TestPersistDiffParamsDeterministic pins that the batching knobs are a
// pure function of the case, so a reported failure replays with the
// exact schedule that produced it.
func TestPersistDiffParamsDeterministic(t *testing.T) {
	c := DeriveCase(7)
	if a, b := persistParamsFor(c), persistParamsFor(c); a != b {
		t.Fatalf("params diverge across derivations: %+v vs %+v", a, b)
	}
	if p := persistParamsFor(c); p.Depth < 2 || p.Depth > 16 {
		t.Fatalf("depth %d outside the derived range [2,16]", p.Depth)
	}
	if avail := splitBlocksAvail(c); avail == 0 {
		if p := persistParamsFor(c); p.Split != 0 {
			t.Fatalf("split %d derived with no split-eligible crash op", p.Split)
		}
	}
}

// TestPersistDiffSplitSweep forces every legal mid-batch split on a
// case whose crash op is a multi-block write, so the "crash after j
// committed requests of the final batch" dimension is exercised
// deterministically, not just when the derived knobs happen to land
// there.
func TestPersistDiffSplitSweep(t *testing.T) {
	c := splitEligibleCase(t)
	avail := splitBlocksAvail(c)
	for split := 0; split <= avail; split++ {
		for _, depth := range []int{1, 3, 64} {
			res := persistDiffWith(c, persistParams{Depth: depth, Split: split})
			if res.Failed() {
				t.Fatalf("seed %d depth %d split %d:\n%s", c.Seed, depth, split, res)
			}
		}
	}
}

// splitEligibleCase scans derived cases for one whose crash op is a
// block-aligned multi-block write under both Thoth schemes.
func splitEligibleCase(t *testing.T) Case {
	t.Helper()
	for seed := int64(1); seed <= 500; seed++ {
		c := DeriveCase(seed)
		c.Schemes = []config.Scheme{config.ThothWTSC, config.ThothWTBC}
		if splitBlocksAvail(c) >= 2 {
			return c
		}
	}
	t.Fatal("no split-eligible case in the first 500 seeds")
	return Case{}
}

// TestPersistDiffTamperFailsIdentically pins error-path parity inside
// the oracle: OpCorrupt flushes the batched executor first, so both
// executors corrupt the identical intermediate image and recovery fails
// (or survives) the same way on both sides — no VPersistDiverge.
func TestPersistDiffTamperFailsIdentically(t *testing.T) {
	res := PersistPipelineDiff(failingCase())
	for _, v := range res.Violations {
		if v.Kind == VPersistDiverge {
			t.Fatalf("tampered image must fail identically on both paths:\n%s", res)
		}
	}
}

// TestPersistDiffCatchesDivergence pins the oracle's teeth: feeding the
// comparison two executions of genuinely different traces (the batched
// side sees one extra committed block via a split the serial side is
// denied) must report VPersistDiverge. This guards against the oracle
// rotting into a tautology.
func TestPersistDiffCatchesDivergence(t *testing.T) {
	c := splitEligibleCase(t)
	// Run the real oracle but with the serial reference built at split 0
	// and the batched run at split 1: one committed block of difference.
	sch := c.Schemes[0]
	img, snap, viols := serialPersistImage(c, sch, 0)
	if img == nil {
		t.Fatalf("serial execution failed: %v", viols)
	}
	bImg, bSnap, bviols := batchedPersistImage(c, sch, persistParams{Depth: 4, Split: 1})
	if bImg == nil {
		t.Fatalf("batched execution failed: %v", bviols)
	}
	serialBytes, err1 := imageBytes(img)
	bBytes, err2 := imageBytes(bImg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if reflect.DeepEqual(serialBytes, bBytes) && snap == bSnap {
		t.Fatal("one extra committed block left image and stats unchanged — the oracle compares nothing")
	}
}
