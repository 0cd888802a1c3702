package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// paper-btree sizes. Warm-up and key population are the quick scale's;
// the measured phase is 40000 transactions, so the measured work
// outweighs set-up, the per-transaction p99 has 400 samples beyond it,
// and the modeled p99 varies by about 2% between seeds.
const (
	btreeWarmupTxs  = 300
	btreeMeasureTxs = 40000
)

// btreeSink is the benchmark-owned workload.Sink between the btree
// streams and harness.Runner. It counts memory operations, records the
// modeled cycles of every Load in the measured phase, and in timed
// repetitions times each call into the runner.
type btreeSink struct {
	r       *harness.Runner
	measure bool // inside the measured phase
	timed   bool // time every call into the runner
	ops     int64
	sinkNS  int64
	loadCyc valueCounts
}

func (s *btreeSink) Load(addr, size int64) {
	s.ops++
	if !s.measure {
		s.r.Load(addr, size)
		return
	}
	c := s.r.Now()
	if s.timed {
		t := time.Now()
		s.r.Load(addr, size)
		s.sinkNS += int64(time.Since(t))
	} else {
		s.r.Load(addr, size)
	}
	s.loadCyc.add(s.r.Now() - c)
}

func (s *btreeSink) Store(addr, size int64) {
	s.ops++
	if s.measure && s.timed {
		t := time.Now()
		s.r.Store(addr, size)
		s.sinkNS += int64(time.Since(t))
		return
	}
	s.r.Store(addr, size)
}

func (s *btreeSink) Persist(addr, size int64) {
	s.ops++
	if s.measure && s.timed {
		t := time.Now()
		s.r.Persist(addr, size)
		s.sinkNS += int64(time.Since(t))
		return
	}
	s.r.Persist(addr, size)
}

func (s *btreeSink) Fence() {
	s.ops++
	if s.measure && s.timed {
		t := time.Now()
		s.r.Fence()
		s.sinkNS += int64(time.Since(t))
		return
	}
	s.r.Fence()
}

// btreeRunConfig is the harness.Run configuration the drive below
// reproduces.
func btreeRunConfig(seed int64) harness.RunConfig {
	return harness.RunConfig{
		Config:     quickConfig(seed),
		Workload:   "btree",
		WarmupTxs:  btreeWarmupTxs,
		MeasureTxs: btreeMeasureTxs,
		SetupKeys:  harness.QuickScale().SetupKeys,
	}
}

// btreeStreams builds one btree stream per modeled core exactly as
// harness.NewRunner does: a disjoint page-aligned heap slice and a
// per-core seed.
func btreeStreams(rc harness.RunConfig, r *harness.Runner) ([]workload.Workload, error) {
	cfg := rc.Config
	lay := r.Controller().Layout()
	perCore := lay.DataBytes / int64(cfg.Cores)
	perCore -= perCore % int64(cfg.PageBytes)
	streams := make([]workload.Workload, cfg.Cores)
	for i := range streams {
		w, err := workload.New(rc.Workload, workload.Params{
			HeapBase:  lay.DataBase + int64(i)*perCore,
			HeapSize:  perCore,
			TxSize:    cfg.TxSize,
			Seed:      cfg.Seed + int64(i)*7919,
			SetupKeys: rc.SetupKeys,
		})
		if err != nil {
			return nil, err
		}
		streams[i] = w
	}
	return streams, nil
}

// driveBTree runs harness.Run's phases (set-up, warm-up with PUB
// prefill, statistics reset, measured phase) stream by stream and
// records the set-up and measured-phase metrics.
func driveBTree(seed int64, m mode) (*rep, *harness.Runner, error) {
	r := newRep()
	rc := btreeRunConfig(seed)
	cfg := rc.Config

	t0 := time.Now()
	runner, err := harness.NewRunner(harness.RunConfig{Config: cfg})
	if err != nil {
		return nil, nil, fmt.Errorf("new runner: %w", err)
	}
	streams, err := btreeStreams(rc, runner)
	if err != nil {
		return nil, nil, fmt.Errorf("streams: %w", err)
	}
	ctl := runner.Controller()
	sink := &btreeSink{r: runner, timed: m == modeTimed, loadCyc: newValueCounts()}
	t1 := time.Now()
	for _, w := range streams {
		w.Setup(sink)
	}
	sink.Fence()
	t2 := time.Now()
	for i := 0; i < btreeWarmupTxs; i++ {
		streams[i%len(streams)].Tx(sink)
	}
	sink.Fence()
	if scheme.UsesPUB(cfg.Scheme) {
		if err := ctl.PrefillPUB(); err != nil {
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	ctl.ResetStats()
	t3 := time.Now()
	r.host["setup_s"] = t3.Sub(t0).Seconds()
	if m == modeTimed {
		r.layer["harness.new_s"] = t1.Sub(t0).Seconds()
		r.layer["workload.setup_s"] = t2.Sub(t1).Seconds()
		r.layer["harness.warmup_s"] = t3.Sub(t2).Seconds()
	}

	txHost := make([]int64, btreeMeasureTxs)
	txModel := make([]int64, btreeMeasureTxs)
	sink.measure = true
	ops0 := sink.ops
	start := runner.Now()
	allocs := startAllocs()
	tm := time.Now()
	for i := 0; i < btreeMeasureTxs; i++ {
		c := runner.Now()
		t := time.Now()
		streams[i%len(streams)].Tx(sink)
		txHost[i] = int64(time.Since(t))
		txModel[i] = runner.Now() - c
	}
	sink.Fence()
	measured := time.Since(tm)
	r.host["allocs_per_op"] = allocs.since() / btreeMeasureTxs
	sink.measure = false
	ops := sink.ops - ops0
	cycles := runner.Now() - start
	ctl.SyncStats()
	st := *ctl.Stats()
	r.attempted += btreeMeasureTxs

	r.host["host_tx_per_s"] = btreeMeasureTxs / measured.Seconds()
	r.host["host_ops_per_s"] = float64(ops) / measured.Seconds()
	r.host["host_op_p50_us"] = float64(quantile(txHost, 0.50)) / 1e3
	r.host["host_op_p99_us"] = float64(quantile(txHost, 0.99)) / 1e3
	r.samples = btreeMeasureTxs
	if m == modeTimed {
		r.layer["harness.sink_s"] = float64(sink.sinkNS) / 1e9
		r.layer["workload.tx_self_s"] = measured.Seconds() - float64(sink.sinkNS)/1e9
	}
	r.model["cycles"] = float64(cycles)
	r.model["sink_ops"] = float64(ops)
	r.model["model_cycles_per_tx"] = float64(cycles) / btreeMeasureTxs
	r.model["model_cycles_per_op"] = float64(cycles) / float64(ops)
	r.model["model_write_p50_cycles"] = float64(quantile(txModel, 0.50))
	r.model["model_write_p99_cycles"] = float64(quantile(txModel, 0.99))
	r.model["model_read_p99_cycles"] = float64(sink.loadCyc.quantile(0.99))
	modelCounts(r, &st, btreeMeasureTxs)
	notePeakHeap(r)
	return r, runner, nil
}

// runPaperBTree is one repetition of paper-btree: the drive, then a
// crash, an image round trip and recovery.
func runPaperBTree(seed int64, m mode) (*rep, error) {
	r, runner, err := driveBTree(seed, m)
	if err != nil {
		return nil, err
	}
	cerr := runner.Crash()
	r.check(cerr == nil, "crash: %v", cerr)
	img, load, err := imageRoundTrip(r, m, runner.Controller().Device())
	if err != nil {
		return nil, err
	}
	notePeakHeap(r)
	rec, err := recoverImage(r, m, quickConfig(seed), img)
	if err != nil {
		return nil, err
	}
	finishRecovery(r)
	r.host["recover_s"] = (load + rec).Seconds()
	return r, nil
}

// finalPaperBTree is paper-btree's once-per-run check. It drives the
// seed once more and ends with Runner.VerifyAll instead of a crash:
// VerifyAll visits blocks in Go map order, so the state it leaves, and
// any crash image taken after it, differs from run to run and cannot
// share a repetition with the guarded recovery counts. The drive must
// reproduce the repetitions' modeled values. Traced runs also run
// harness.Run itself on the seed, which must measure the same cycles
// and counts as the benchmark's stream-by-stream drive, and which
// supplies the LLC hit rate that only harness.Run reports.
func finalPaperBTree(seed int64, drive *rep, traced bool) (*rep, error) {
	v, runner, err := driveBTree(seed, modePlain)
	if err != nil {
		return nil, err
	}
	r := newRep()
	for k, got := range v.model {
		r.check(math.Float64bits(got) == math.Float64bits(drive.model[k]),
			"verification drive %s = %v, the repetitions %v", k, got, drive.model[k])
	}
	n, verr := runner.VerifyAll()
	r.check(verr == nil, "VerifyAll after %d blocks: %v", n, verr)
	if !traced {
		return r, nil
	}
	res, err := harness.Run(btreeRunConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("harness.Run: %w", err)
	}
	r.check(float64(res.Cycles) == drive.model["cycles"],
		"harness.Run measured %d cycles, the benchmark drive %v", res.Cycles, drive.model["cycles"])
	modelCounts(r, &res.Stats, btreeMeasureTxs)
	for k, v := range r.model {
		r.check(math.Float64bits(v) == math.Float64bits(drive.model[k]),
			"harness.Run %s = %v, the benchmark drive %v", k, v, drive.model[k])
	}
	r.model["llc.hit_rate"] = res.Stats.LLCHitRate()
	return r, nil
}

// valueCounts is an exact histogram of modeled cycle values: a
// presized map, so recording allocates nothing in steady state.
type valueCounts map[int64]int64

func newValueCounts() valueCounts { return make(valueCounts, 1024) }

func (v valueCounts) add(x int64) { v[x]++ }

// quantile returns the exact nearest-rank q-quantile.
func (v valueCounts) quantile(q float64) int64 {
	var n int64
	keys := make([]int64, 0, len(v))
	for k, c := range v {
		keys = append(keys, k)
		n += c
	}
	if n == 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := int64(math.Ceil(q * float64(n)))
	var seen int64
	for _, k := range keys {
		seen += v[k]
		if seen >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}
