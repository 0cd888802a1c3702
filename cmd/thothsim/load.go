package main

// The `thothsim load` subcommand: open-loop multi-tenant traffic
// against a single secure-memory controller or a sharded pool. Unlike
// the workload harness (closed-loop: each transaction starts when the
// previous one finishes), the load generator draws arrival times from a
// seeded stochastic process, so queueing delay is part of every
// measured latency and overload shows up as tail growth rather than
// reduced throughput. The scenario matrix, arrival processes, key
// patterns and the latency pipeline live in internal/loadgen; this file
// is flag parsing, target construction and the stable report.

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// loadQuant renders a histogram quantile (a power of two, 0 or +Inf)
// for the CLI report.
func loadQuant(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.0f", v)
}

// loadTarget bundles the driver target with the hooks the report needs;
// both backends expose deterministic modeled stats.
type loadTarget struct {
	tgt   loadgen.Target
	info  scheme.Info
	stats func() (stats.Stats, error)
	close func() error
}

// newLoadTarget builds the traffic target: one controller when shards
// is 0 or 1, a sharded engine pool otherwise.
func newLoadTarget(cfg config.Config, shards int) (*loadTarget, error) {
	if shards <= 1 {
		ctl, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		t := loadgen.NewControllerTarget(ctl)
		return &loadTarget{
			tgt:   t,
			info:  ctl.SchemeInfo(),
			stats: func() (stats.Stats, error) { return t.Stats(), nil },
			close: func() error { return nil },
		}, nil
	}
	pool, err := engine.New(cfg, shards)
	if err != nil {
		return nil, err
	}
	return &loadTarget{
		tgt:   loadgen.NewPoolTarget(pool),
		info:  pool.SchemeInfo(),
		stats: pool.Stats,
		close: func() error { _, err := pool.Shutdown(); return err },
	}, nil
}

// runLoad implements `thothsim load`: resolve the scenario, apply the
// population/budget overrides, drive the open loop to completion and
// print the deterministic report (latency percentiles from the metrics
// histograms, the event-stream hash, the modeled controller stats).
// Only the wall-clock line goes to stderr — stdout is seeded-run
// reproducible and golden-tested.
func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thothsim load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scnName := fs.String("scenario", "steady",
		"traffic scenario: "+strings.Join(loadgen.ScenarioNames(), "|"))
	list := fs.Bool("list", false, "list the scenario matrix and exit")
	tenants := fs.Int("tenants", 0, "tenant population (0 = the scenario default)")
	shards := fs.Int("shards", 0, "drive a sharded pool at N controllers (0|1 = one controller)")
	ops := fs.Int64("ops", 0, "total operation budget (0 = the scenario default)")
	durationMs := fs.Float64("duration", 0,
		"stop at this much modeled time in milliseconds (0 = the op budget alone; "+
			"when set without -ops the op budget is lifted)")
	seed := fs.Int64("seed", 0, "scenario seed override (0 = the scenario default)")
	machine := machineFlags(fs)
	top := fs.Int("top", 0, "also report the N tenants with the worst p99")
	check := fs.Bool("check", false,
		"record the raw latency stream and verify every histogram percentile "+
			"against an exact recomputation (within one log2 bucket)")
	attr := fs.Bool("attr", false,
		"decompose every op's latency into pipeline-stage cycles "+
			"(queue/fetch/crypto/tree/wpq/persist) and print the attribution report; "+
			"conservation — stages summing exactly to the latency — is enforced per op")
	progress := fs.Float64("progress", 0,
		"print a top-style gauge summary to stderr every this many wall seconds (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, s := range loadgen.Scenarios() {
			fmt.Fprintf(stdout, "%-8s %s\n", s.Name, s.Desc)
		}
		return 0
	}

	scn, err := loadgen.ScenarioByName(*scnName)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	if *tenants > 0 {
		scn.Tenants = *tenants
	}
	if *ops > 0 {
		scn.Ops = *ops
	}
	if *seed != 0 {
		scn.Seed = *seed
	}

	cfg, err := machine()
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}

	if *durationMs > 0 {
		scn.DurationCycles = int64(*durationMs * cfg.CPUFreqGHz * 1e6)
		if *ops == 0 {
			scn.Ops = 0 // the modeled horizon is the budget
		}
	}

	reg := metrics.New()
	cfg.Metrics = reg
	lt, err := newLoadTarget(cfg, *shards)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	d, err := loadgen.NewDriver(scn, lt.tgt, cfg, reg, loadgen.Options{
		RecordLatencies: *check,
		Attribution:     *attr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}

	nShards := *shards
	if nShards < 1 {
		nShards = 1
	}
	fmt.Fprintf(stdout, "load scenario=%s scheme=%v block=%dB tenants=%d shards=%d seed=%d\n",
		scn.Name, cfg.Scheme, cfg.BlockSize, scn.Tenants, nShards, scn.Seed)

	start := time.Now()
	if err := runLoadLoop(d, reg, *progress, stderr); err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wall %v\n", time.Since(start).Round(time.Millisecond))

	fmt.Fprint(stdout, d.Summary().String())
	if *attr {
		a, err := d.Attribution()
		if err != nil {
			fmt.Fprintln(stderr, "thothsim load:", err)
			return 1
		}
		printAttribution(stdout, a, *top)
	}
	if *top > 0 {
		ts := d.TenantSummaries()
		if len(ts) > *top {
			ts = ts[:*top]
		}
		fmt.Fprintf(stdout, "top %d tenants by p99 latency:\n", len(ts))
		for _, s := range ts {
			fmt.Fprintf(stdout, "  tenant %04d: %d ops, p50/p95/p99 %s / %s / %s cycles\n",
				s.Tenant, s.Ops, loadQuant(s.P50), loadQuant(s.P95), loadQuant(s.P99))
		}
	}
	st, err := lt.stats()
	if err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	fmt.Fprintln(stdout, st.String())

	if *check {
		if err := d.CheckQuantiles(); err != nil {
			fmt.Fprintln(stderr, "thothsim load:", err)
			return 1
		}
		fmt.Fprintln(stdout,
			"quantile check: every histogram percentile matches the exact recomputation "+
				"(bucket upper bound, within one log2 bucket)")
	}
	if err := lt.close(); err != nil {
		fmt.Fprintln(stderr, "thothsim load:", err)
		return 1
	}
	return 0
}

// runLoadLoop drives the scenario to completion. With progressSec > 0
// it runs in chunks and prints a top-style one-line summary to stderr
// every progressSec wall seconds: completed ops, the modeled cycle,
// live tail percentiles and the queue gauges (summed WPQ and PUB
// occupancy) sampled from the shared registry. stdout
// is untouched — the golden-tested report stays reproducible.
func runLoadLoop(d *loadgen.Driver, reg *metrics.Registry, progressSec float64, stderr io.Writer) error {
	if progressSec <= 0 {
		return d.Run()
	}
	const chunk = 4096
	interval := time.Duration(progressSec * float64(time.Second))
	sampler := metrics.NewSampler(reg, 1, 0, nil)
	last := time.Now()
	for {
		n, err := d.RunOps(chunk)
		if err != nil {
			return err
		}
		if now := time.Now(); now.Sub(last) >= interval || n < chunk {
			last = now
			sampler.Tick(d.MaxCycle())
			printLoadProgress(stderr, d, sampler)
		}
		if n < chunk {
			return nil
		}
	}
}

// printLoadProgress renders one progress line from the driver summary
// and the latest gauge sample.
func printLoadProgress(w io.Writer, d *loadgen.Driver, sampler *metrics.Sampler) {
	sum := d.Summary()
	fmt.Fprintf(w, "progress: ops=%d cycle=%d write p99=%s read p99=%s",
		sum.Ops, sum.Cycles, loadQuant(sum.WriteP99), loadQuant(sum.ReadP99))
	if last, ok := sampler.Last(); ok {
		gaugeSum := func(prefix string) (int64, bool) {
			var s int64
			found := false
			for k, v := range last.Values {
				if strings.HasPrefix(k, prefix) {
					s += v
					found = true
				}
			}
			return s, found
		}
		for _, g := range []struct{ label, prefix string }{
			{"wpq", "thoth_wpq_occupancy"},
			{"pub", "thoth_pub_occupancy_blocks"},
		} {
			if v, ok := gaugeSum(g.prefix); ok {
				fmt.Fprintf(w, " %s=%d", g.label, v)
			}
		}
	}
	fmt.Fprintln(w)
}

// printAttribution renders the attribution report: the aggregate stage
// breakdown always, plus per-tenant rows — the -top count when set,
// otherwise up to eight — with a truncation note for the rest.
func printAttribution(w io.Writer, a loadgen.Attribution, top int) {
	limit := top
	if limit <= 0 {
		limit = 8
	}
	shown := a.Tenants
	if len(shown) > limit {
		shown = shown[:limit]
	}
	trimmed := a
	trimmed.Tenants = shown
	fmt.Fprint(w, trimmed.String())
	if rest := len(a.Tenants) - len(shown); rest > 0 {
		fmt.Fprintf(w, "  (… %d more tenants; raise -top to widen)\n", rest)
	}
}

// newLoadSim builds the load-generator-backed sim behind `thothsim
// serve -load <scenario>`: rounds issue a fixed number of open-loop ops
// against a fresh controller (or a pool at shards > 1) while the HTTP
// handlers read the shared registry — the aggregate and per-tenant
// latency histograms (thoth_loadgen_* families) are live, so /metrics
// exposes per-tenant percentiles mid-run. The scenario's op and
// duration budgets are lifted: serve mode runs rounds until
// interrupted.
func newLoadSim(cfg config.Config, scenario string, tenants, shards, roundOps int, sampleEvery int64) (*serveSim, error) {
	scn, err := loadgen.ScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	if tenants > 0 {
		scn.Tenants = tenants
	}
	scn.Ops = 0
	scn.DurationCycles = 0
	reg := metrics.New()
	cfg.Metrics = reg
	lt, err := newLoadTarget(cfg, shards)
	if err != nil {
		return nil, err
	}
	// Attribution is always on in serve mode: both load targets support
	// spans, the per-op cost is an allocation-free cursor walk, and it
	// puts the thoth_op_stage_cycles{stage=...} histograms on /metrics
	// so the stage mix is scrapeable live.
	d, err := loadgen.NewDriver(scn, lt.tgt, cfg, reg, loadgen.Options{Attribution: true})
	if err != nil {
		return nil, err
	}
	step := func() error {
		_, err := d.RunOps(int64(roundOps))
		return err
	}
	snapshot := func() (statsz, error) {
		st, err := lt.stats()
		if err != nil {
			return statsz{}, err
		}
		sum := d.Summary()
		doc := newStatsz(st, sum.Cycles)
		doc.StatszLoad = &StatszLoad{
			Scenario:       sum.Scenario,
			Tenants:        sum.Tenants,
			Shards:         max(shards, 1),
			Ops:            sum.Ops,
			Reads:          sum.Reads,
			Writes:         sum.Writes,
			WriteP50:       loadQuant(sum.WriteP50),
			WriteP95:       loadQuant(sum.WriteP95),
			WriteP99:       loadQuant(sum.WriteP99),
			ReadP99:        loadQuant(sum.ReadP99),
			WorstTenant:    fmt.Sprintf("%04d", sum.WorstTenant),
			WorstTenantP99: loadQuant(sum.WorstP99),
			EventHash:      sum.EventHash,
		}
		return doc, nil
	}
	return startServeSim(reg, lt.info, "ops", roundOps, sampleEvery, step, snapshot)
}
