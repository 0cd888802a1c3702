package loadgen_test

// The attribution conservation sweep: with Options.Attribution on,
// every op's stage cycles must sum exactly to its open-loop latency —
// ExecOp enforces it per op and fails the run on any leak — and the
// aggregates must re-derive: stage totals equal to the summed latency
// histograms, per-tenant totals summing to the aggregate. Swept over
// 200 crashfuzz-derived machines, against both a single controller and
// a 4-shard pool (the multi-segment critical-path selection included).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crashfuzz"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// conservationScenario is one small seeded open-loop scenario: Poisson
// arrivals so queueing (and hence the SpanQueue stage) is exercised,
// a read mix so both op paths are covered.
func conservationScenario(seed int64) loadgen.Scenario {
	return loadgen.Scenario{
		Name:        "attr-conservation",
		Arrival:     loadgen.ArrivalSpec{Kind: loadgen.ArrivePoisson, MeanCycles: 3000},
		Keys:        loadgen.KeySpec{Kind: loadgen.KeysUniform},
		ReadPercent: 40,
		Tenants:     3,
		Ops:         20,
		Seed:        seed,
	}
}

// runConservation drives one scenario with attribution on and
// cross-checks the report against the latency histograms.
func runConservation(t *testing.T, seed int64, label string, tgt loadgen.Target, reg *metrics.Registry, cfg crashfuzz.Case) {
	t.Helper()
	d, err := loadgen.NewDriver(conservationScenario(seed), tgt, cfg.ConfigFor(cfg.Schemes[0]), reg,
		loadgen.Options{Attribution: true})
	if err != nil {
		t.Fatalf("seed %d %s: NewDriver: %v", seed, label, err)
	}
	// ExecOp enforces per-op conservation: any stage-cycle leak fails
	// the run here.
	if err := d.Run(); err != nil {
		t.Fatalf("seed %d %s: %v", seed, label, err)
	}
	a, err := d.Attribution()
	if err != nil {
		t.Fatalf("seed %d %s: %v", seed, label, err)
	}
	if a.Aggregate.Ops != 20 {
		t.Fatalf("seed %d %s: aggregate counts %d ops, want 20", seed, label, a.Aggregate.Ops)
	}
	var latSum int64
	for _, op := range []string{"read", "write"} {
		h := reg.Histogram("thoth_loadgen_latency_cycles",
			"Open-loop op latency (completion - arrival) in modeled cycles.",
			metrics.Label{Key: "op", Value: op})
		_, _, sum := h.Snapshot()
		latSum += sum
	}
	if got := a.Aggregate.Total(); got != latSum {
		t.Fatalf("seed %d %s: aggregate stage cycles %d != summed latency %d",
			seed, label, got, latSum)
	}
	var tenSum int64
	var tenOps int64
	for _, tb := range a.Tenants {
		tenSum += tb.Total()
		tenOps += tb.Ops
	}
	if tenSum != latSum || tenOps != a.Aggregate.Ops {
		t.Fatalf("seed %d %s: tenant totals (%d cycles, %d ops) != aggregate (%d, %d)",
			seed, label, tenSum, tenOps, latSum, a.Aggregate.Ops)
	}
}

func TestAttributionConservationSweep(t *testing.T) {
	const sweepSeeds = 200
	for seed := int64(0); seed < sweepSeeds; seed++ {
		c := crashfuzz.DeriveCase(seed)
		cfg := c.ConfigFor(c.Schemes[0])

		ctl, err := core.New(cfg)
		if err != nil {
			t.Fatalf("seed %d: core.New: %v", seed, err)
		}
		runConservation(t, seed, "controller", loadgen.NewControllerTarget(ctl), metrics.New(), c)

		pool, err := engine.New(cfg, 4)
		if err != nil {
			t.Fatalf("seed %d: engine.New: %v", seed, err)
		}
		runConservation(t, seed, "pool", loadgen.NewPoolTarget(pool), metrics.New(), c)
		if _, err := pool.Shutdown(); err != nil {
			t.Fatalf("seed %d: pool shutdown: %v", seed, err)
		}
	}
}
