package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// simConfig is the scaled-down machine used across harness tests: the
// full secure pipeline with a PUB small enough that warm-up reaches the
// eviction threshold quickly.
func simConfig(s config.Scheme) config.Config {
	cfg := config.Default().WithScheme(s)
	cfg.MemBytes = 1 << 30
	cfg.PUBBytes = 256 << 10
	cfg.LLCBytes = 1 << 20
	return cfg
}

func run(t *testing.T, rc RunConfig) *Result {
	t.Helper()
	if rc.SetupKeys == 0 {
		rc.SetupKeys = 2048 // keep unit tests fast; experiments use the default
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesWork(t *testing.T) {
	res := run(t, RunConfig{
		Config:     simConfig(config.ThothWTSC),
		Workload:   "btree",
		WarmupTxs:  200,
		MeasureTxs: 400,
	})
	if res.Cycles <= 0 {
		t.Fatal("measured phase must consume cycles")
	}
	if res.Stats.TotalWrites() == 0 || res.Stats.Writes(stats.WriteData) == 0 {
		t.Fatal("measured phase must write data")
	}
	if res.Stats.Writes(stats.WritePCB) == 0 {
		t.Fatal("Thoth run must write PCB blocks")
	}
	if res.Stats.PUBEvictions == 0 {
		t.Fatal("prefilled PUB must evict during measurement")
	}
}

func TestRunVerifies(t *testing.T) {
	for _, w := range []string{"btree", "swap"} {
		res := run(t, RunConfig{
			Config:     simConfig(config.ThothWTSC),
			Workload:   w,
			WarmupTxs:  50,
			MeasureTxs: 150,
			Verify:     true,
		})
		_ = res // Verify already ran inside Run
	}
}

// TestVerifyDeterministic: two identical runs with Verify leave equal
// controller statistics and equal runner clocks, because VerifyAll
// visits the persisted blocks in a fixed order.
func TestVerifyDeterministic(t *testing.T) {
	rc := RunConfig{
		Config:     simConfig(config.ThothWTSC),
		Workload:   "btree",
		WarmupTxs:  50,
		MeasureTxs: 150,
		Verify:     true,
	}
	a, b := run(t, rc), run(t, rc)
	a.Controller.SyncStats()
	b.Controller.SyncStats()
	if sa, sb := *a.Controller.Stats(), *b.Controller.Stats(); sa != sb {
		t.Errorf("controller stats differ after verify:\n%+v\n%+v", sa, sb)
	}
	if ca, cb := a.Runner.Now(), b.Runner.Now(); ca != cb {
		t.Errorf("runner clocks differ after verify: %d vs %d", ca, cb)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(RunConfig{Config: simConfig(config.ThothWTSC), Workload: "btree"}); err == nil {
		t.Error("zero MeasureTxs must error")
	}
	if _, err := Run(RunConfig{Config: simConfig(config.ThothWTSC), Workload: "nosuch", MeasureTxs: 10, SetupKeys: 64}); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestDeterministicCycles(t *testing.T) {
	rc := RunConfig{
		Config:     simConfig(config.ThothWTSC),
		Workload:   "hashmap",
		WarmupTxs:  100,
		MeasureTxs: 200,
	}
	a := run(t, rc)
	b := run(t, rc)
	if a.Cycles != b.Cycles || a.Stats.TotalWrites() != b.Stats.TotalWrites() {
		t.Fatalf("identical runs diverged: %d/%d cycles, %d/%d writes",
			a.Cycles, b.Cycles, a.Stats.TotalWrites(), b.Stats.TotalWrites())
	}
}

func TestThothBeatsBaselineOnDatabaseWorkloads(t *testing.T) {
	// The headline result (Figure 8): Thoth speeds up the database
	// workloads and reduces write traffic versus the adapted-Anubis
	// baseline.
	for _, w := range []string{"btree", "hashmap"} {
		base := run(t, RunConfig{Config: simConfig(config.BaselineStrict), Workload: w, WarmupTxs: 300, MeasureTxs: 600})
		thoth := run(t, RunConfig{Config: simConfig(config.ThothWTSC), Workload: w, WarmupTxs: 300, MeasureTxs: 600})
		speedup := float64(base.Cycles) / float64(thoth.Cycles)
		writeRatio := float64(thoth.Stats.TotalWrites()) / float64(base.Stats.TotalWrites())
		t.Logf("%s: speedup=%.3f writeRatio=%.3f (base %d cyc / %d wr; thoth %d cyc / %d wr)",
			w, speedup, writeRatio, base.Cycles, base.Stats.TotalWrites(), thoth.Cycles, thoth.Stats.TotalWrites())
		if speedup <= 1.0 {
			t.Errorf("%s: Thoth speedup %.3f, want > 1", w, speedup)
		}
		if writeRatio >= 1.0 {
			t.Errorf("%s: Thoth write ratio %.3f, want < 1", w, writeRatio)
		}
	}
}

func TestFenceOrdersPersists(t *testing.T) {
	r, err := NewRunner(RunConfig{Config: simConfig(config.ThothWTSC), Workload: "swap", MeasureTxs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lay := r.Controller().Layout()
	addr := lay.DataBase
	r.Store(addr, 128)
	r.Persist(addr, 128)
	before := r.Now()
	r.Fence()
	if r.Now() < before {
		t.Fatal("fence moved time backwards")
	}
	// After the fence there is nothing outstanding: a second fence is a
	// no-op.
	mid := r.Now()
	r.Fence()
	if r.Now() != mid {
		t.Fatal("idle fence must not advance time")
	}
}

func TestCLWBOfCleanLineIsFree(t *testing.T) {
	r, err := NewRunner(RunConfig{Config: simConfig(config.ThothWTSC), Workload: "swap", MeasureTxs: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := r.Controller().Layout().DataBase
	r.Store(addr, 128)
	r.Persist(addr, 128)
	r.Fence()
	w := r.Controller().Stats().Writes(stats.WriteData)
	r.Persist(addr, 128) // line is clean now
	r.Fence()
	if got := r.Controller().Stats().Writes(stats.WriteData); got != w {
		t.Fatalf("clwb of clean line wrote %d extra blocks", got-w)
	}
}
