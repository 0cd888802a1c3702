package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sets the simulation magnitude for the experiment suite. The
// paper runs at least 5000 transactions per core on gem5 with a 64MB
// PUB; this model reproduces the same mechanics at a configurable scale
// — the PUB is sized so that the warm-up phase reaches the eviction
// threshold (the paper achieves the same by fast-forwarding and
// prefilling, Section V-A), and transaction counts trade runtime for
// statistical stability.
type Scale struct {
	WarmupTxs  int
	MeasureTxs int
	SetupKeys  int
	PUBBytes   int64
	MemBytes   int64
	LLCBytes   int
}

// DefaultScale runs a full experiment in a few seconds per configuration.
func DefaultScale() Scale {
	return Scale{
		WarmupTxs:  1200,
		MeasureTxs: 6000,
		SetupKeys:  16384,
		PUBBytes:   1 << 20,
		MemBytes:   1 << 30,
		LLCBytes:   1 << 20,
	}
}

// QuickScale is for smoke tests: an order of magnitude smaller.
func QuickScale() Scale {
	return Scale{
		WarmupTxs:  300,
		MeasureTxs: 1000,
		SetupKeys:  2048,
		PUBBytes:   256 << 10,
		MemBytes:   1 << 30,
		LLCBytes:   1 << 20,
	}
}

// apply stamps the scale onto a machine configuration.
func (sc Scale) apply(cfg config.Config) config.Config {
	cfg.MemBytes = sc.MemBytes
	cfg.PUBBytes = sc.PUBBytes
	cfg.LLCBytes = sc.LLCBytes
	return cfg
}

// Experiments memoizes simulation runs shared between figures and
// executes independent runs in parallel.
type Experiments struct {
	Scale   Scale
	Out     io.Writer
	Workers int
	// Tracer, when non-nil, receives the controller events of every run
	// the suite executes. Runs execute in parallel worker goroutines, so
	// the tracer must be safe for concurrent use (the obs sinks are).
	// Memoization keys ignore it: tracing does not change results.
	Tracer obs.Tracer
	// Zoo, when non-empty, replaces the default comparison set of the
	// Schemes experiment (the CLI's -schemes flag).
	Zoo []config.Scheme

	mu    sync.Mutex
	cache map[string]*Result
}

// NewExperiments builds an experiment driver writing reports to out.
func NewExperiments(sc Scale, out io.Writer) *Experiments {
	return &Experiments{
		Scale:   sc,
		Out:     out,
		Workers: runtime.GOMAXPROCS(0),
		cache:   make(map[string]*Result),
	}
}

func key(rc RunConfig) string {
	c := rc.Config
	return fmt.Sprintf("%s|%v|blk%d|tx%d|ctr%d|mac%d|wpq%d|pcb%d|pub%d|mem%d|w%d|m%d|s%d|eadr%v|after%v|shadow%v",
		rc.Workload, c.Scheme, c.BlockSize, c.TxSize, c.CtrCacheBytes, c.MACCacheBytes,
		c.WPQEntries, c.PCBEntries, c.PUBBytes, c.MemBytes,
		rc.WarmupTxs, rc.MeasureTxs, rc.SetupKeys, c.EADR, c.PCBAfterWPQ, c.ShadowTracking)
}

// runConfig builds the standard RunConfig for a machine configuration.
func (e *Experiments) runConfig(cfg config.Config, wl string) RunConfig {
	if e.Tracer != nil {
		cfg.Tracer = e.Tracer
	}
	return RunConfig{
		Config:     cfg,
		Workload:   wl,
		WarmupTxs:  e.Scale.WarmupTxs,
		MeasureTxs: e.Scale.MeasureTxs,
		SetupKeys:  e.Scale.SetupKeys,
	}
}

// get returns the memoized result for a run, executing it if needed.
func (e *Experiments) get(rc RunConfig) (*Result, error) {
	k := key(rc)
	e.mu.Lock()
	if r, ok := e.cache[k]; ok {
		e.mu.Unlock()
		return r, nil
	}
	e.mu.Unlock()
	r, err := Run(rc)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", k, err)
	}
	// Release heavyweight state not needed by report formatting.
	r.Controller = nil
	r.Runner = nil
	e.mu.Lock()
	e.cache[k] = r
	e.mu.Unlock()
	return r, nil
}

// prefetch executes a batch of runs in parallel. The first failure
// cancels the rest of the batch: runs not yet dispatched are skipped,
// and already-dispatched workers bail out before starting their
// simulation, so one poisoned configuration does not burn minutes
// executing the remaining matrix before the error surfaces.
func (e *Experiments) prefetch(rcs []RunConfig) error {
	sem := make(chan struct{}, e.Workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var failed atomic.Bool
	seen := map[string]bool{}
	for _, rc := range rcs {
		k := key(rc)
		if seen[k] {
			continue
		}
		seen[k] = true
		if failed.Load() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(rc RunConfig) {
			defer wg.Done()
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			if _, err := e.get(rc); err != nil {
				failed.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(rc)
	}
	wg.Wait()
	return firstErr
}

// gmean returns the geometric mean of the values. Every value must be
// positive and finite: math.Log of a zero or negative speedup yields
// -Inf or NaN, which used to flow straight into the report as "NaN"
// instead of failing the experiment.
func gmean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("gmean: no values")
	}
	sum := 0.0
	for i, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("gmean: value %d is %v, need positive finite values", i, v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// mean returns the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Fig3 reproduces Figure 3: the breakdown of PUB-eviction outcomes for
// FIFO buffers of 500,000 / 5,000 / 50 entries (scaled by the same
// factor as the suite's PUB if the default scale is reduced).
func (e *Experiments) Fig3() error {
	sizes := []struct {
		label   string
		entries int64
	}{{"A=500000", 500000}, {"B=5000", 5000}, {"C=50", 50}}

	var rcs []RunConfig
	mk := func(entries int64, wl string) RunConfig {
		cfg := e.Scale.apply(config.Default().WithScheme(config.ThothWTSC))
		blocks := entries / int64(cfg.PartialsPerBlock())
		if blocks < 4 {
			blocks = 4
		}
		cfg.PUBBytes = blocks * int64(cfg.BlockSize)
		// Tiny hypothetical buffers need a smaller PCB so the ring can
		// still absorb the crash-time flush.
		if int64(cfg.PCBEntries) > blocks-2 {
			cfg.PCBEntries = int(blocks - 2)
		}
		return e.runConfig(cfg, wl)
	}
	for _, sz := range sizes {
		for _, wl := range workload.Names() {
			rcs = append(rcs, mk(sz.entries, wl))
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}

	fmt.Fprintf(e.Out, "\nFigure 3: PUB eviction outcome breakdown (%% of evicted partial updates)\n")
	fmt.Fprintf(e.Out, "%-10s %-10s %13s %16s %11s %11s %12s\n",
		"buffer", "workload", "written-back", "already-evicted", "clean-copy", "stale-copy", "no-write(%)")
	for _, sz := range sizes {
		var noWrite []float64
		for _, wl := range workload.Names() {
			r, err := e.get(mk(sz.entries, wl))
			if err != nil {
				return err
			}
			st := &r.Stats
			wb := 100 * st.EvictShare(stats.EvictWrittenBack)
			ae := 100 * st.EvictShare(stats.EvictAlreadyEvicted)
			cc := 100 * st.EvictShare(stats.EvictCleanCopy)
			sc := 100 * st.EvictShare(stats.EvictStaleCopy)
			nw := 100 - wb
			noWrite = append(noWrite, nw)
			fmt.Fprintf(e.Out, "%-10s %-10s %13.1f %16.1f %11.1f %11.1f %12.1f\n",
				sz.label, wl, wb, ae, cc, sc, nw)
		}
		fmt.Fprintf(e.Out, "%-10s %-10s %13s %16s %11s %11s %12.1f  (paper: larger buffers -> ~99.5%% no-write)\n",
			sz.label, "average", "", "", "", "", mean(noWrite))
	}
	return nil
}

// fig8Matrix lists the runs shared by Figures 8 and 9.
func (e *Experiments) fig8Matrix() []RunConfig {
	var rcs []RunConfig
	for _, blk := range []int{128, 256} {
		for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC, config.ThothWTBC} {
			for _, wl := range workload.Names() {
				cfg := e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(s))
				rcs = append(rcs, e.runConfig(cfg, wl))
			}
		}
	}
	return rcs
}

// Fig8 reproduces Figure 8: speedup of Thoth (WTSC and WTBC) over the
// baseline at 128B transactions for 128B and 256B cache blocks.
func (e *Experiments) Fig8() error {
	if err := e.prefetch(e.fig8Matrix()); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nFigure 8: Speedup over adapted-Anubis baseline (tx=128B)\n")
	fmt.Fprintf(e.Out, "%-10s %14s %14s %14s %14s\n",
		"workload", "128B/WTSC", "128B/WTBC", "256B/WTSC", "256B/WTBC")
	cols := []struct {
		blk    int
		scheme config.Scheme
	}{{128, config.ThothWTSC}, {128, config.ThothWTBC}, {256, config.ThothWTSC}, {256, config.ThothWTBC}}
	sums := make([][]float64, len(cols))
	for _, wl := range workload.Names() {
		fmt.Fprintf(e.Out, "%-10s", wl)
		for i, c := range cols {
			base, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(c.blk).WithScheme(config.BaselineStrict)), wl))
			if err != nil {
				return err
			}
			th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(c.blk).WithScheme(c.scheme)), wl))
			if err != nil {
				return err
			}
			sp := float64(base.Cycles) / float64(th.Cycles)
			sums[i] = append(sums[i], sp)
			fmt.Fprintf(e.Out, " %14.3f", sp)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "%-10s", "gmean")
	for i := range cols {
		g, err := gmean(sums[i])
		if err != nil {
			return fmt.Errorf("fig8 %s/%v: %w", "speedup", cols[i].scheme, err)
		}
		fmt.Fprintf(e.Out, " %14.3f", g)
	}
	fmt.Fprintf(e.Out, "\n(paper averages: 1.22x at 128B, 1.16x at 256B; swap ~1.0x)\n")
	return nil
}

// Fig9 reproduces Figure 9: write traffic of Thoth (WTSC/WTBC) relative
// to the baseline, plus the write-category breakdown quoted in V-B.
func (e *Experiments) Fig9() error {
	if err := e.prefetch(e.fig8Matrix()); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nFigure 9: NVM writes, normalized to baseline (tx=128B)\n")
	fmt.Fprintf(e.Out, "%-10s %12s %12s %12s %12s\n",
		"workload", "128B/WTSC", "128B/WTBC", "256B/WTSC", "256B/WTBC")
	cols := []struct {
		blk    int
		scheme config.Scheme
	}{{128, config.ThothWTSC}, {128, config.ThothWTBC}, {256, config.ThothWTSC}, {256, config.ThothWTBC}}
	sums := make([][]float64, len(cols))
	for _, wl := range workload.Names() {
		fmt.Fprintf(e.Out, "%-10s", wl)
		for i, c := range cols {
			base, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(c.blk).WithScheme(config.BaselineStrict)), wl))
			if err != nil {
				return err
			}
			th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(c.blk).WithScheme(c.scheme)), wl))
			if err != nil {
				return err
			}
			ratio := float64(th.Stats.TotalWrites()) / float64(base.Stats.TotalWrites())
			sums[i] = append(sums[i], ratio)
			fmt.Fprintf(e.Out, " %12.3f", ratio)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "%-10s", "mean")
	for i := range cols {
		fmt.Fprintf(e.Out, " %12.3f", mean(sums[i]))
	}
	fmt.Fprintf(e.Out, "\n(paper: -32%% at 128B, -37%% at 256B => ratios 0.68 / 0.63)\n")

	// Category breakdown (V-B quotes baseline ctr=24.37%, mac=29.7%;
	// Thoth pcb=3.95%, ctr=6.81%, mac=9.46%).
	fmt.Fprintf(e.Out, "\nWrite-category breakdown (128B blocks, %% of each scheme's total writes)\n")
	fmt.Fprintf(e.Out, "%-10s %-15s %8s %8s %8s %8s %8s %8s\n",
		"workload", "scheme", "data", "counter", "mac", "pcb", "tree", "other")
	for _, wl := range workload.Names() {
		for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
			r, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithScheme(s)), wl))
			if err != nil {
				return err
			}
			st := &r.Stats
			fmt.Fprintf(e.Out, "%-10s %-15s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				wl, s,
				100*st.WriteShare(stats.WriteData), 100*st.WriteShare(stats.WriteCounter),
				100*st.WriteShare(stats.WriteMAC), 100*st.WriteShare(stats.WritePCB),
				100*st.WriteShare(stats.WriteTree), 100*st.WriteShare(stats.WriteOther))
		}
	}
	return nil
}

// txSweepMatrix lists the runs shared by Figure 10 and Tables II/III.
func (e *Experiments) txSweepMatrix() []RunConfig {
	var rcs []RunConfig
	for _, blk := range []int{128, 256} {
		for _, tx := range []int{128, 512, 1024, 2048} {
			for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
				for _, wl := range workload.Names() {
					cfg := e.Scale.apply(config.Default().WithBlockSize(blk).WithTxSize(tx).WithScheme(s))
					rcs = append(rcs, e.runConfig(cfg, wl))
				}
			}
		}
	}
	return rcs
}

// Fig10 reproduces Figure 10: speedup versus transaction size.
func (e *Experiments) Fig10() error {
	if err := e.prefetch(e.txSweepMatrix()); err != nil {
		return err
	}
	for _, blk := range []int{128, 256} {
		fmt.Fprintf(e.Out, "\nFigure 10: Speedup vs transaction size (%dB cache block, WTSC)\n", blk)
		fmt.Fprintf(e.Out, "%-10s %9s %9s %9s %9s\n", "workload", "tx=128B", "tx=512B", "tx=1024B", "tx=2048B")
		sums := make([][]float64, 4)
		for _, wl := range workload.Names() {
			fmt.Fprintf(e.Out, "%-10s", wl)
			for i, tx := range []int{128, 512, 1024, 2048} {
				base, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithTxSize(tx).WithScheme(config.BaselineStrict)), wl))
				if err != nil {
					return err
				}
				th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithTxSize(tx).WithScheme(config.ThothWTSC)), wl))
				if err != nil {
					return err
				}
				sp := float64(base.Cycles) / float64(th.Cycles)
				sums[i] = append(sums[i], sp)
				fmt.Fprintf(e.Out, " %9.3f", sp)
			}
			fmt.Fprintln(e.Out)
		}
		fmt.Fprintf(e.Out, "%-10s", "gmean")
		for i := range sums {
			g, err := gmean(sums[i])
			if err != nil {
				return fmt.Errorf("fig10 blk=%d: %w", blk, err)
			}
			fmt.Fprintf(e.Out, " %9.3f", g)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(paper averages 128B blk: 1.22/1.23/1.19/1.19; 256B blk: 1.16/1.17/1.14/1.19)\n")
	return nil
}

// Table2 reproduces Table II: the average percentage of total NVM writes
// that are ciphertext (data) writes, for baseline and Thoth across
// transaction sizes and block sizes.
func (e *Experiments) Table2() error {
	if err := e.prefetch(e.txSweepMatrix()); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nTable II: Average %% of writes that are ciphertext\n")
	fmt.Fprintf(e.Out, "%-28s %9s %9s %9s %9s\n", "config", "tx=128B", "tx=512B", "tx=1024B", "tx=2048B")
	for _, row := range []struct {
		scheme config.Scheme
		blk    int
	}{
		{config.BaselineStrict, 128}, {config.BaselineStrict, 256},
		{config.ThothWTSC, 128}, {config.ThothWTSC, 256},
	} {
		fmt.Fprintf(e.Out, "%-28s", fmt.Sprintf("%v(blk=%dB)", row.scheme, row.blk))
		for _, tx := range []int{128, 512, 1024, 2048} {
			var shares []float64
			for _, wl := range workload.Names() {
				r, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(row.blk).WithTxSize(tx).WithScheme(row.scheme)), wl))
				if err != nil {
					return err
				}
				shares = append(shares, 100*r.Stats.WriteShare(stats.WriteData))
			}
			fmt.Fprintf(e.Out, " %8.2f%%", mean(shares))
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(paper: baseline 45-58%%, Thoth 67-76%%, rising with tx size)\n")
	return nil
}

// Table3 reproduces Table III: the average percentage of partial updates
// merged in the PCB across transaction sizes and block sizes.
func (e *Experiments) Table3() error {
	if err := e.prefetch(e.txSweepMatrix()); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nTable III: Average %% of partial updates merged in the PCB\n")
	fmt.Fprintf(e.Out, "%-20s %9s %9s %9s %9s\n", "cache block", "tx=128B", "tx=512B", "tx=1024B", "tx=2048B")
	for _, blk := range []int{128, 256} {
		fmt.Fprintf(e.Out, "%-20s", fmt.Sprintf("blk=%dB", blk))
		for _, tx := range []int{128, 512, 1024, 2048} {
			var rates []float64
			for _, wl := range workload.Names() {
				r, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithTxSize(tx).WithScheme(config.ThothWTSC)), wl))
				if err != nil {
					return err
				}
				rates = append(rates, 100*r.Stats.PCBMergeRate())
			}
			fmt.Fprintf(e.Out, " %8.2f%%", mean(rates))
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(paper: 74->34%% for 128B blk, 88->63%% for 256B blk as tx grows;\n shape: merge rate falls with tx size, 256B blocks merge more)\n")
	return nil
}

// Fig11 reproduces Figure 11: speedup sensitivity to the counter/MAC
// cache sizes (64k/128k, 512k/1M, 1M/2M).
func (e *Experiments) Fig11() error {
	caches := []struct {
		label    string
		ctr, mac int
	}{
		{"64k/128k", 64 << 10, 128 << 10},
		{"512k/1M", 512 << 10, 1 << 20},
		{"1M/2M", 1 << 20, 2 << 20},
	}
	var rcs []RunConfig
	for _, blk := range []int{128, 256} {
		for _, cs := range caches {
			for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
				for _, wl := range workload.Names() {
					cfg := e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(s).WithMetadataCaches(cs.ctr, cs.mac))
					rcs = append(rcs, e.runConfig(cfg, wl))
				}
			}
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	for _, blk := range []int{128, 256} {
		fmt.Fprintf(e.Out, "\nFigure 11: Speedup vs counter/MAC cache size (%dB cache block, WTSC)\n", blk)
		fmt.Fprintf(e.Out, "%-10s %10s %10s %10s\n", "workload", "64k/128k", "512k/1M", "1M/2M")
		sums := make([][]float64, len(caches))
		for _, wl := range workload.Names() {
			fmt.Fprintf(e.Out, "%-10s", wl)
			for i, cs := range caches {
				base, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(config.BaselineStrict).WithMetadataCaches(cs.ctr, cs.mac)), wl))
				if err != nil {
					return err
				}
				th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(config.ThothWTSC).WithMetadataCaches(cs.ctr, cs.mac)), wl))
				if err != nil {
					return err
				}
				sp := float64(base.Cycles) / float64(th.Cycles)
				sums[i] = append(sums[i], sp)
				fmt.Fprintf(e.Out, " %10.3f", sp)
			}
			fmt.Fprintln(e.Out)
		}
		fmt.Fprintf(e.Out, "%-10s", "gmean")
		for i := range sums {
			g, err := gmean(sums[i])
			if err != nil {
				return fmt.Errorf("fig11 blk=%d: %w", blk, err)
			}
			fmt.Fprintf(e.Out, " %10.3f", g)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(paper: 1.22->1.34 at 128B blk, 1.16->1.28 at 256B blk: larger caches help Thoth)\n")
	return nil
}

// Fig12 reproduces Figure 12: speedup sensitivity to WPQ size (64/32/16
// entries; Thoth reserves 1/8 of entries for the PCB).
func (e *Experiments) Fig12() error {
	wpqs := []int{64, 32, 16}
	var rcs []RunConfig
	for _, blk := range []int{128, 256} {
		for _, q := range wpqs {
			for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
				for _, wl := range workload.Names() {
					cfg := e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(s).WithWPQ(q))
					rcs = append(rcs, e.runConfig(cfg, wl))
				}
			}
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	for _, blk := range []int{128, 256} {
		fmt.Fprintf(e.Out, "\nFigure 12: Speedup vs WPQ size (%dB cache block, WTSC)\n", blk)
		fmt.Fprintf(e.Out, "%-10s %10s %10s %10s\n", "workload", "WPQ=64", "WPQ=32", "WPQ=16")
		sums := make([][]float64, len(wpqs))
		for _, wl := range workload.Names() {
			fmt.Fprintf(e.Out, "%-10s", wl)
			for i, q := range wpqs {
				base, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(config.BaselineStrict).WithWPQ(q)), wl))
				if err != nil {
					return err
				}
				th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithBlockSize(blk).WithScheme(config.ThothWTSC).WithWPQ(q)), wl))
				if err != nil {
					return err
				}
				sp := float64(base.Cycles) / float64(th.Cycles)
				sums[i] = append(sums[i], sp)
				fmt.Fprintf(e.Out, " %10.3f", sp)
			}
			fmt.Fprintln(e.Out)
		}
		fmt.Fprintf(e.Out, "%-10s", "gmean")
		for i := range sums {
			g, err := gmean(sums[i])
			if err != nil {
				return fmt.Errorf("fig12 blk=%d: %w", blk, err)
			}
			fmt.Fprintf(e.Out, " %10.3f", g)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(paper: 1.22/1.48/1.65 at 128B blk, 1.16/1.50/1.81 at 256B: smaller WPQ widens the gap)\n")
	return nil
}

// SecVF reproduces the Section V-F comparison: Thoth's overhead versus
// the hypothetical Anubis-with-ECC ideal (paper: ~7% on average).
func (e *Experiments) SecVF() error {
	var rcs []RunConfig
	for _, s := range []config.Scheme{config.AnubisECC, config.ThothWTSC} {
		for _, wl := range workload.Names() {
			rcs = append(rcs, e.runConfig(e.Scale.apply(config.Default().WithScheme(s)), wl))
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nSection V-F: Thoth overhead vs Anubis-with-ECC ideal (128B blocks)\n")
	fmt.Fprintf(e.Out, "%-10s %16s\n", "workload", "overhead")
	var ovs []float64
	for _, wl := range workload.Names() {
		ideal, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithScheme(config.AnubisECC)), wl))
		if err != nil {
			return err
		}
		th, err := e.get(e.runConfig(e.Scale.apply(config.Default().WithScheme(config.ThothWTSC)), wl))
		if err != nil {
			return err
		}
		ov := float64(th.Cycles)/float64(ideal.Cycles) - 1
		ovs = append(ovs, ov)
		fmt.Fprintf(e.Out, "%-10s %15.1f%%\n", wl, 100*ov)
	}
	fmt.Fprintf(e.Out, "%-10s %15.1f%%  (paper: ~7%% average)\n", "average", 100*mean(ovs))
	return nil
}

// Recovery runs the crash/recovery experiment: each workload runs, the
// machine crashes mid-stream, recovery merges the PUB and verifies the
// tree, and the analytic recovery time for the paper's full 64MB PUB is
// reported (paper: ~7s).
func (e *Experiments) Recovery() error {
	fmt.Fprintf(e.Out, "\nSection IV-D: Crash recovery (WTSC)\n")
	fmt.Fprintf(e.Out, "%-10s %10s %10s %10s %10s %8s %12s\n",
		"workload", "pubBlocks", "entries", "mergedCtr", "mergedMAC", "rootOK", "est(64MB)")
	full := config.Default()
	fullEst := recovery.EstimateSeconds(full, full.PUBBlocks())
	for _, wl := range workload.Names() {
		cfg := e.Scale.apply(config.Default().WithScheme(config.ThothWTSC))
		rc := e.runConfig(cfg, wl)
		rc.MeasureTxs = e.Scale.MeasureTxs / 4
		res, err := Run(rc)
		if err != nil {
			return err
		}
		if err := res.Runner.Controller().Crash(res.Runner.Now()); err != nil {
			return fmt.Errorf("crash(%s): %w", wl, err)
		}
		rep, err := recovery.Recover(cfg, res.Controller.Device())
		if err != nil {
			return fmt.Errorf("recovery(%s): %w", wl, err)
		}
		fmt.Fprintf(e.Out, "%-10s %10d %10d %10d %10d %8v %11.2fs\n",
			wl, rep.PUBBlocks, rep.PUBEntries, rep.MergedCtr, rep.MergedMAC,
			rep.RootVerified, fullEst)
	}
	fmt.Fprintf(e.Out, "(paper: ~7s added recovery time for a 64MB PUB)\n")
	return nil
}

// EADRAblation is an extension experiment covering the paper's explicit
// future work (Section II-B): with enhanced ADR the cache hierarchy is
// persistent, clwb/sfence leave the critical path, and the data reaches
// NVM only on natural evictions — shrinking both the write stream and
// the gap between schemes (at the platform cost the paper cites as the
// reason eADR is often disabled).
func (e *Experiments) EADRAblation() error {
	mk := func(s config.Scheme, eadr bool, wl string) RunConfig {
		cfg := e.Scale.apply(config.Default().WithScheme(s))
		cfg.EADR = eadr
		return e.runConfig(cfg, wl)
	}
	var rcs []RunConfig
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC} {
		for _, eadr := range []bool{false, true} {
			for _, wl := range workload.Names() {
				rcs = append(rcs, mk(s, eadr, wl))
			}
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nExtension: ADR vs eADR (future work in the paper, Section II-B)\n")
	fmt.Fprintf(e.Out, "%-10s %14s %14s %14s %12s %12s\n",
		"workload", "base/ADR cyc", "thoth/ADR cyc", "eADR cyc", "eADR gain", "eADR writes")
	for _, wl := range workload.Names() {
		base, err := e.get(mk(config.BaselineStrict, false, wl))
		if err != nil {
			return err
		}
		th, err := e.get(mk(config.ThothWTSC, false, wl))
		if err != nil {
			return err
		}
		ead, err := e.get(mk(config.ThothWTSC, true, wl))
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-10s %14d %14d %14d %11.2fx %11.1f%%\n",
			wl, base.Cycles, th.Cycles, ead.Cycles,
			float64(th.Cycles)/float64(ead.Cycles),
			100*float64(ead.Stats.TotalWrites())/float64(th.Stats.TotalWrites()))
	}
	fmt.Fprintf(e.Out, "(persists leave the critical path; only natural evictions write during execution)\n")
	return nil
}

// PUBSize is an ablation over the PUB capacity (the design's central
// parameter, Section III): speedup and the fraction of PUB evictions
// that still require a write-back, as the buffer shrinks from the
// suite's default toward nothing.
func (e *Experiments) PUBSize() error {
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	mk := func(s config.Scheme, pub int64, wl string) RunConfig {
		cfg := e.Scale.apply(config.Default().WithScheme(s))
		if scheme.UsesPUB(s) {
			cfg.PUBBytes = pub
		}
		return e.runConfig(cfg, wl)
	}
	var rcs []RunConfig
	for _, wl := range workload.Names() {
		rcs = append(rcs, mk(config.BaselineStrict, 0, wl))
		for _, pub := range sizes {
			rcs = append(rcs, mk(config.ThothWTSC, pub, wl))
		}
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nAblation: PUB size (WTSC, 128B blocks) — speedup / %%written-back at eviction\n")
	fmt.Fprintf(e.Out, "%-10s", "workload")
	for _, pub := range sizes {
		fmt.Fprintf(e.Out, " %14s", fmt.Sprintf("PUB=%dKiB", pub>>10))
	}
	fmt.Fprintln(e.Out)
	for _, wl := range workload.Names() {
		base, err := e.get(mk(config.BaselineStrict, 0, wl))
		if err != nil {
			return err
		}
		fmt.Fprintf(e.Out, "%-10s", wl)
		for _, pub := range sizes {
			th, err := e.get(mk(config.ThothWTSC, pub, wl))
			if err != nil {
				return err
			}
			wb := 100 * th.Stats.EvictShare(stats.EvictWrittenBack)
			fmt.Fprintf(e.Out, "  %6.3f/%5.1f%%", float64(base.Cycles)/float64(th.Cycles), wb)
		}
		fmt.Fprintln(e.Out)
	}
	fmt.Fprintf(e.Out, "(larger PUBs turn more evictions into discards — the paper's central claim)\n")
	return nil
}

// Arrangement is the Section IV-C ablation: the adopted augmented
// PCB-before-WPQ versus the alternative PCB-after-WPQ. The paper reports
// the augmented before-arrangement "can minimize the pressure on the WPQ
// and obtain similar performance as in PCB-after-WPQ".
func (e *Experiments) Arrangement() error {
	mk := func(s config.Scheme, after bool, wl string) RunConfig {
		cfg := e.Scale.apply(config.Default().WithScheme(s))
		cfg.PCBAfterWPQ = after
		return e.runConfig(cfg, wl)
	}
	var rcs []RunConfig
	for _, wl := range workload.Names() {
		rcs = append(rcs, mk(config.BaselineStrict, false, wl))
		rcs = append(rcs, mk(config.ThothWTSC, false, wl))
		rcs = append(rcs, mk(config.ThothWTSC, true, wl))
	}
	if err := e.prefetch(rcs); err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "\nAblation: PCB arrangement (Section IV-C) — speedup over baseline\n")
	fmt.Fprintf(e.Out, "%-10s %16s %16s %14s %14s\n",
		"workload", "before-WPQ", "after-WPQ", "before wr", "after wr")
	var sb, sa []float64
	for _, wl := range workload.Names() {
		base, err := e.get(mk(config.BaselineStrict, false, wl))
		if err != nil {
			return err
		}
		before, err := e.get(mk(config.ThothWTSC, false, wl))
		if err != nil {
			return err
		}
		after, err := e.get(mk(config.ThothWTSC, true, wl))
		if err != nil {
			return err
		}
		b := float64(base.Cycles) / float64(before.Cycles)
		a := float64(base.Cycles) / float64(after.Cycles)
		sb = append(sb, b)
		sa = append(sa, a)
		fmt.Fprintf(e.Out, "%-10s %16.3f %16.3f %14d %14d\n",
			wl, b, a, before.Stats.TotalWrites(), after.Stats.TotalWrites())
	}
	gb, err := gmean(sb)
	if err != nil {
		return fmt.Errorf("arrangement before-WPQ: %w", err)
	}
	ga, err := gmean(sa)
	if err != nil {
		return fmt.Errorf("arrangement after-WPQ: %w", err)
	}
	fmt.Fprintf(e.Out, "%-10s %16.3f %16.3f\n", "gmean", gb, ga)
	fmt.Fprintf(e.Out, "(paper: the augmented before-arrangement performs similarly to after-WPQ)\n")
	return nil
}

// All runs every experiment in report order.
func (e *Experiments) All() error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig3", e.Fig3}, {"fig8", e.Fig8}, {"fig9", e.Fig9},
		{"fig10", e.Fig10}, {"table2", e.Table2}, {"table3", e.Table3},
		{"fig11", e.Fig11}, {"fig12", e.Fig12}, {"secVF", e.SecVF},
		{"recovery", e.Recovery}, {"eadr", e.EADRAblation},
		{"pubsize", e.PUBSize}, {"arrangement", e.Arrangement},
		{"schemes", e.Schemes}, {"scenarios", e.Scenarios},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// ByName dispatches one experiment by its CLI name.
func (e *Experiments) ByName(name string) error {
	m := map[string]func() error{
		"3": e.Fig3, "8": e.Fig8, "9": e.Fig9, "10": e.Fig10,
		"table2": e.Table2, "table3": e.Table3,
		"11": e.Fig11, "12": e.Fig12, "vf": e.SecVF, "recovery": e.Recovery,
		"eadr": e.EADRAblation, "pubsize": e.PUBSize,
		"arrangement": e.Arrangement, "schemes": e.Schemes,
		"scenarios": e.Scenarios,
		"all":       e.All,
	}
	fn, ok := m[name]
	if !ok {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown experiment %q (have %v)", name, names)
	}
	return fn()
}
