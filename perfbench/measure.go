package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// mode selects how one repetition of a workload is observed.
type mode int

const (
	// modePlain runs the workload with nothing but the end-to-end clock
	// reads: the run every end-to-end host metric comes from.
	modePlain mode = iota
	// modeProfiled is modePlain under the CPU profiler (traced runs
	// only); its samples give the cpu.<pkg> shares.
	modeProfiled
	// modeTimed wraps every call into a layer's public functions with a
	// host clock read (traced runs only); it gives the per-layer times.
	modeTimed
)

func (m mode) String() string {
	switch m {
	case modeProfiled:
		return "profiled"
	case modeTimed:
		return "timed"
	}
	return "plain"
}

// rep is the outcome of one repetition of a workload: set-up, measured
// phase, correctness checks, crash and recovery.
type rep struct {
	mode mode
	// host holds host-time end-to-end metrics of this repetition.
	host map[string]float64
	// model holds every modeled metric and modeled count. The run fails
	// unless it is bit-identical across all repetitions and modes.
	model map[string]float64
	// pin is an opaque modeled fingerprint (the loadgen event-stream
	// hash), guarded like model.
	pin string
	// layer holds per-layer host times (modeTimed only).
	layer map[string]float64
	// attempted and failed count operations plus correctness checks.
	attempted, failed int64
	// samples is the number of per-op host timings behind the
	// host_op_* percentiles.
	samples int
	// notes are human-readable lines printed before the result.
	notes []string
}

func newRep() *rep {
	return &rep{host: map[string]float64{}, model: map[string]float64{}, layer: map[string]float64{}}
}

// pass counts one correctness check and reports whether it passed. Hot
// loops call it instead of check, formatting a note only on failure, so
// passing checks allocate nothing.
func (r *rep) pass(ok bool) bool {
	r.attempted++
	if !ok {
		r.failed++
	}
	return ok
}

// note records a failure description (the first 20 of a repetition).
func (r *rep) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check, noting it when it failed.
func (r *rep) check(ok bool, format string, args ...any) {
	if !r.pass(ok) {
		r.note(format, args...)
	}
}

// benchWorkload is one benchmark workload: run performs a full repetition
// from the seed.
type benchWorkload struct {
	name string
	run  func(seed int64, m mode) (*rep, error)
	// final, when non-nil, runs once per run after the repetitions: it
	// makes checks that cannot share a repetition (drive is the first
	// one) and returns them plus any modeled value only it measures.
	final func(seed int64, drive *rep, traced bool) (*rep, error)
}

// allocCounter measures heap allocations over an interval.
type allocCounter struct{ start uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{start: ms.Mallocs}
}

func (a allocCounter) since() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.start)
}

// notePeakHeap collects garbage and raises the repetition's peak live
// heap (heap_peak_mib) to the bytes still reachable. Workloads call it
// outside the timed phases, at the points where the most data is live:
// the end of the measured phase and after the image round trip, when
// the crashed and the loaded image coexist. Live bytes after a full
// collection do not depend on when the collector happened to run.
func notePeakHeap(r *rep) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.host["heap_peak_mib"] = max(r.host["heap_peak_mib"], float64(ms.HeapAlloc)/(1<<20))
}

// quantile returns the exact q-quantile (nearest rank) of vs, sorting
// vs in place.
func quantile(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

// median returns the median of vs (the mean of the middle pair for an
// even count) without modifying vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
