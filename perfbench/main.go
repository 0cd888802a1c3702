// Command perfbench is the repository benchmark: three workloads driven
// through the program's public functions, end-to-end metrics from plain
// repetitions, per-layer metrics from a traced run. See README.md for
// the workloads, every metric and how they relate.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	perfbench --workload paper-btree|pool-burst|kv-crash --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every correctness and determinism check passed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

var workloads = []benchWorkload{
	{name: "paper-btree", run: runPaperBTree, final: finalPaperBTree},
	{name: "pool-burst", run: runPoolBurst},
	{name: "kv-crash", run: runKVCrash},
}

// endToEnd lists the end-to-end metrics (plain runs) with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_tx_per_s", "1/s"},
	{"host_ops_per_s", "1/s"},
	{"host_op_p50_us", "us"},
	{"host_op_p99_us", "us"},
	{"recover_s", "s"},
	{"allocs_per_op", "count"},
	{"heap_peak_mib", "MiB"},
	{"model_cycles_per_tx", "cycles"},
	{"model_cycles_per_op", "cycles"},
	{"nvm_writes_per_tx", "count"},
	{"model_write_p50_cycles", "cycles"},
	{"model_write_p99_cycles", "cycles"},
	{"model_read_p99_cycles", "cycles"},
}

// perLayer lists the per-layer metrics (traced runs) with their units.
// A metric of a layer the workload bypasses reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"harness.new_s", "s"},
		{"workload.setup_s", "s"},
		{"harness.warmup_s", "s"},
		{"workload.tx_self_s", "s"},
		{"harness.sink_s", "s"},
		{"loadgen.gen_s", "s"},
		{"engine.op_s", "s"},
		{"loadgen.exec_self_s", "s"},
		{"thoth.write_s", "s"},
		{"thoth.read_s", "s"},
		{"nvm.save_image_s", "s"},
		{"nvm.load_image_s", "s"},
		{"recovery.scan_s", "s"},
		{"recovery.merge_s", "s"},
		{"recovery.rebuild_s", "s"},
		{"recovery.verify_s", "s"},
	}
	for _, p := range cpuPackages {
		out = append(out, struct{ name, unit string }{"cpu." + p, "fraction"})
	}
	out = append(out, []struct{ name, unit string }{
		{"cpu.samples", "count"},
		{"llc.hit_rate", "fraction"},
		{"cache.ctr_hit_rate", "fraction"},
		{"cache.mac_hit_rate", "fraction"},
		{"cache.mt_hit_rate", "fraction"},
		{"pub.pcb_merge_rate", "fraction"},
		{"pub.entry_evictions_per_tx", "count"},
		{"pub.evict_written_back_frac", "fraction"},
		{"wpq.stall_cycles_per_tx", "cycles"},
		{"wpq.coalesced_per_tx", "count"},
		{"nvm.reads_per_tx", "count"},
		{"nvm.writes_data_per_tx", "count"},
		{"nvm.writes_counter_per_tx", "count"},
		{"nvm.writes_mac_per_tx", "count"},
		{"nvm.writes_pcb_per_tx", "count"},
		{"nvm.writes_tree_per_tx", "count"},
		{"ctr.overflows", "count"},
	}...)
	for _, kind := range []string{"write", "read"} {
		for _, st := range []string{"queue", "fetch", "crypto", "tree", "wpq", "persist"} {
			out = append(out, struct{ name, unit string }{"stage." + kind + "." + st + "_frac", "fraction"})
		}
	}
	return append(out, []struct{ name, unit string }{
		{"stage.conservation_err_cycles", "cycles"},
		{"recovery.pub_entries", "count"},
		{"recovery.merged_ctr", "count"},
		{"recovery.merged_mac", "count"},
		{"recovery.stale_frac", "fraction"},
		{"recovery.model_cycles", "cycles"},
		{"host_op_samples", "count"},
		{"trace.plain_tx_per_s", "1/s"},
		{"trace.timed_over_plain", "ratio"},
		{"trace.profiled_over_plain", "ratio"},
		{"fail_frac", "fraction"},
	}...)
}()

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-btree, pool-burst or kv-crash")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Float64("seconds", 10, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 emits the per-layer metrics instead of the end-to-end ones")
	child := flag.Bool("child", false, "print this process's repetitions for a parent run (internal)")
	flag.Parse()
	// One P: the workloads issue one synchronous op at a time, so a
	// second P only adds cross-CPU wake-ups of idle vCPUs on every pool
	// mailbox hand-off, which swung pool-burst host times by 10-16%
	// between runs. GC work then also shares the measured P.
	runtime.GOMAXPROCS(1)
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-btree|pool-burst|kv-crash, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if *child {
		if err := emitChild(w, *seed, *secs, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(w, *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// repeat runs the workload until secs seconds have passed and at least
// once per kind of repetition, rotating the kinds. It also returns the
// CPU samples of the profiled repetitions per package.
func repeat(w *benchWorkload, seed int64, secs float64, traced bool) ([]*rep, map[string]int64, error) {
	modes := []mode{modePlain}
	if traced {
		modes = []mode{modePlain, modeProfiled, modeTimed}
	}
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	cpu := map[string]int64{}
	var all []*rep
	for i := 0; i < len(modes) || time.Now().Before(deadline); i++ {
		m := modes[i%len(modes)]
		runtime.GC()
		var prof bytes.Buffer
		if m == modeProfiled {
			// 500 Hz instead of the default 100 Hz: more samples per
			// repetition. The runtime warns on stderr that the rate was
			// already set; the requested rate is the one in effect.
			runtime.SetCPUProfileRate(500)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		r, err := w.run(seed, m)
		if m == modeProfiled {
			pprof.StopCPUProfile()
			if err == nil {
				err = cpuShares(prof.Bytes(), cpu)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s repetition %d: %w", m, i, err)
		}
		r.mode = m
		all = append(all, r)
	}
	return all, cpu, nil
}

// run makes the repetitions in runProcs child processes, one after
// another, and reduces them to the result.
func run(w *benchWorkload, seed int64, secs float64, traced bool) (*result, error) {
	all, cpu, err := runChildren(w, seed, secs, traced)
	if err != nil {
		return nil, err
	}
	byMode := map[mode][]*rep{}
	for _, r := range all {
		byMode[r.mode] = append(byMode[r.mode], r)
	}

	res := &result{Metrics: map[string]metric{}}
	det := determinism(all)
	notes := det
	if w.final != nil {
		f, err := w.final(seed, all[0], traced)
		if err != nil {
			return nil, fmt.Errorf("final check: %w", err)
		}
		all = append(all, f)
	}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		notes = append(notes, r.notes...)
	}
	for _, n := range dedup(notes) {
		fmt.Println(n)
	}
	res.Correct = res.Failed == 0 && len(det) == 0

	plain := byMode[modePlain]
	values := map[string]float64{}
	for _, r := range all {
		// Modeled values are identical in every repetition (checked
		// above); the timed ones add the stage shares, the final check
		// the LLC hit rate.
		for k, v := range r.model {
			values[k] = v
		}
	}
	samples := plain[0].samples
	fmt.Printf("%s seed %d: %d processes, %d plain repetitions", w.name, seed, runProcs, len(plain))
	if traced {
		fmt.Printf(", %d profiled, %d timed", len(byMode[modeProfiled]), len(byMode[modeTimed]))
	}
	fmt.Printf("; host_op percentiles over %d ops per repetition; fail_frac %.3g (%d of %d)\n",
		samples, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if w.name == "pool-burst" {
		fmt.Println("pool-burst is open loop in modeled time: its single generator goroutine issues one synchronous op at a time, so it is never late in modeled time.")
	}

	list := endToEnd
	if traced {
		list = perLayer
		timed := byMode[modeTimed]
		for k := range timed[0].layer {
			values[k] = medianOf(timed, func(r *rep) float64 { return r.layer[k] })
		}
		var total int64
		for _, c := range cpu {
			total += c
		}
		for _, p := range cpuPackages {
			values["cpu."+p] = frac(cpu[p], total)
		}
		values["cpu.samples"] = float64(total)
		base := medianOf(plain, func(r *rep) float64 { return r.host["host_tx_per_s"] })
		values["trace.plain_tx_per_s"] = base
		values["trace.timed_over_plain"] = medianOf(timed, func(r *rep) float64 { return r.host["host_tx_per_s"] }) / base
		values["trace.profiled_over_plain"] = medianOf(byMode[modeProfiled], func(r *rep) float64 { return r.host["host_tx_per_s"] }) / base
		values["host_op_samples"] = float64(samples)
		values["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
		if w.name == "paper-btree" {
			fmt.Printf("timed repetitions: setup_s %.4g against harness.new_s + workload.setup_s + harness.warmup_s %.4g\n",
				medianOf(timed, func(r *rep) float64 { return r.host["setup_s"] }),
				values["harness.new_s"]+values["workload.setup_s"]+values["harness.warmup_s"])
		}
		fmt.Printf("timed repetitions: recover_s %.4g against nvm.load_image_s + recovery phases %.4g\n",
			medianOf(timed, func(r *rep) float64 { return r.host["recover_s"] }),
			values["nvm.load_image_s"]+values["recovery.scan_s"]+values["recovery.merge_s"]+values["recovery.rebuild_s"]+values["recovery.verify_s"])
	} else {
		for k := range plain[0].host {
			values[k] = medianOf(plain, func(r *rep) float64 { return r.host[k] })
		}
	}
	for _, e := range list {
		v := values[e.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", e.name, v)
		}
		res.Metrics[e.name] = metric{Value: v, Unit: e.unit}
		fmt.Printf("  %-32s %16.6g %s\n", e.name, v, e.unit)
	}
	return res, nil
}

// determinism returns one line per modeled value that differs between
// repetitions. Every repetition must reproduce the first (plain) one bit
// for bit; timed repetitions carry extra modeled values (the stage
// shares), which must also agree among themselves.
func determinism(all []*rep) []string {
	var out []string
	diff := func(base, r *rep) {
		for k, v := range base.model {
			if got, ok := r.model[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
				out = append(out, fmt.Sprintf("FAIL: determinism: %s is %v in a %s repetition and %v in a %s one", k, v, base.mode, got, r.mode))
			}
		}
		if r.pin != base.pin {
			out = append(out, "FAIL: determinism: loadgen event streams differ between repetitions")
		}
	}
	var timed *rep
	for _, r := range all {
		diff(all[0], r)
		if r.mode == modeTimed {
			if timed == nil {
				timed = r
			}
			diff(timed, r)
		}
	}
	return dedup(out)
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return median(vs)
}

func dedup(lines []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range lines {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}
