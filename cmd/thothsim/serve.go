package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// serveSim is the long-running simulation behind `thothsim serve`: a
// step that runs one round of work — workload transactions through the
// harness, or open-loop ops through the load generator — feeding one
// metrics registry. The registry is built on atomics, so HTTP handlers
// read it concurrently with the simulation. The /statsz document is
// built on the simulation goroutine at round boundaries and swapped in
// under a mutex, so handlers only ever read the last published copy.
type serveSim struct {
	reg       *metrics.Registry
	sampler   *metrics.Sampler
	info      scheme.Info
	unit      string // what a round counts: "txs" or "ops"
	roundSize int
	step      func() error
	snapshot  func() (statsz, error)
	rounds    int64

	mu  sync.Mutex
	doc statsz
}

// startServeSim wraps a step and its snapshot into a serveSim and
// publishes round 0, the state before any round runs.
func startServeSim(reg *metrics.Registry, info scheme.Info, unit string, roundSize int, sampleEvery int64, step func() error, snapshot func() (statsz, error)) (*serveSim, error) {
	s := &serveSim{
		reg:       reg,
		sampler:   metrics.NewSampler(reg, sampleEvery, 0, nil),
		info:      info,
		unit:      unit,
		roundSize: roundSize,
		step:      step,
		snapshot:  snapshot,
	}
	if err := s.publish(); err != nil {
		return nil, err
	}
	return s, nil
}

// round runs one round of work and publishes its end state.
func (s *serveSim) round() error {
	if err := s.step(); err != nil {
		return err
	}
	s.rounds++
	return s.publish()
}

// publish builds the /statsz document, swaps it in for the handlers
// and ticks the time-series sampler at the document's cycle.
func (s *serveSim) publish() error {
	doc, err := s.snapshot()
	if err != nil {
		return err
	}
	doc.Scheme = s.info.Name
	doc.SchemeGuarantees = s.info.Guarantees
	doc.SchemeTunables = s.info.Tunables
	doc.Rounds = s.rounds
	s.mu.Lock()
	s.doc = doc
	s.mu.Unlock()
	s.sampler.Tick(doc.Cycle)
	return nil
}

// published returns the last published /statsz document.
func (s *serveSim) published() statsz {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doc
}

// now returns the modeled cycle of the last published round.
func (s *serveSim) now() int64 { return s.published().Cycle }

// newServeSim builds the harness-backed sim: a workload runner taken
// through harness.Run's measurement protocol (setup, warm-up, PUB
// prefill, stats reset), with the registry attached through both seams
// — the FromTracer adapter for event-derived metrics, Config.Metrics
// for the controller's native histograms. extra, when non-nil, also
// receives every event — the differential test uses it to record the
// JSONL trace that cmd/tracemetrics replays.
func newServeSim(cfg config.Config, workload string, setupKeys, warmupTxs, roundTxs int, sampleEvery int64, extra obs.Tracer) (*serveSim, error) {
	reg := metrics.New()
	var tr obs.Tracer = metrics.FromTracer(reg)
	if extra != nil {
		tr = obs.Multi(extra, tr)
	}
	cfg.Tracer, cfg.Metrics = tr, reg
	r, err := harness.NewRunner(harness.RunConfig{Config: cfg, Workload: workload, SetupKeys: setupKeys})
	if err != nil {
		return nil, err
	}
	if err := r.Warm(warmupTxs); err != nil {
		return nil, err
	}
	ctl := r.Controller()
	// The controller does not count transactions (harness.Run stamps
	// them from its own config); the serve loop is the driver here, so
	// it owns the tally.
	var txs int64
	step := func() error {
		r.RunTxs(roundTxs)
		ctl.SyncStats()
		txs += int64(roundTxs)
		return nil
	}
	snapshot := func() (statsz, error) {
		doc := newStatsz(*ctl.Stats(), r.Now())
		doc.StatszHarness = &StatszHarness{Workload: workload, Transactions: txs}
		return doc, nil
	}
	return startServeSim(reg, ctl.SchemeInfo(), "txs", roundTxs, sampleEvery, step, snapshot)
}

// statsz is the JSON document served at /statsz. The common part is
// the controller statistics (pooled across shards for a pool); exactly
// one of the embedded mode parts is set, and encoding/json inlines its
// fields.
type statsz struct {
	Scheme           string           `json:"scheme"`
	SchemeGuarantees string           `json:"scheme_guarantees"`
	SchemeTunables   []scheme.Tunable `json:"scheme_tunables,omitempty"`
	Rounds           int64            `json:"rounds"`
	Cycle            int64            `json:"cycle"`
	TotalWrites      int64            `json:"total_writes"`
	NVMReads         int64            `json:"nvm_reads"`
	CtrHitRate       float64          `json:"ctr_hit_rate"`
	MACHitRate       float64          `json:"mac_hit_rate"`
	MTHitRate        float64          `json:"mt_hit_rate"`
	PCBMergeRate     float64          `json:"pcb_merge_rate"`
	WPQStalls        int64            `json:"wpq_stall_cycles"`
	PUBEvictions     int64            `json:"pub_evictions"`
	CtrOverflows     int64            `json:"ctr_overflows"`
	*StatszHarness
	*StatszLoad
}

// StatszHarness is the /statsz part of the workload harness mode.
// (The mode parts are exported because encoding/json cannot decode
// into embedded pointers to unexported types.)
type StatszHarness struct {
	Workload     string `json:"workload"`
	Transactions int64  `json:"transactions"`
}

// StatszLoad is the /statsz part of the load mode. The percentiles are
// strings because an empty histogram's quantile is +Inf, which JSON
// cannot encode as a number.
type StatszLoad struct {
	Scenario       string `json:"scenario"`
	Tenants        int    `json:"tenants"`
	Shards         int    `json:"shards"`
	Ops            int64  `json:"ops"`
	Reads          int64  `json:"reads"`
	Writes         int64  `json:"writes"`
	WriteP50       string `json:"write_p50_cycles"`
	WriteP95       string `json:"write_p95_cycles"`
	WriteP99       string `json:"write_p99_cycles"`
	ReadP99        string `json:"read_p99_cycles"`
	WorstTenant    string `json:"worst_tenant"`
	WorstTenantP99 string `json:"worst_tenant_p99_cycles"`
	EventHash      string `json:"event_stream_sha256"`
}

// newStatsz fills the common part of the /statsz document.
func newStatsz(st stats.Stats, cycle int64) statsz {
	return statsz{
		Cycle:        cycle,
		TotalWrites:  st.TotalWrites(),
		NVMReads:     st.NVMReads,
		CtrHitRate:   st.CtrHitRate(),
		MACHitRate:   st.MACHitRate(),
		MTHitRate:    st.MTHitRate(),
		PCBMergeRate: st.PCBMergeRate(),
		WPQStalls:    st.WPQStallCycles,
		PUBEvictions: st.PUBEvictions,
		CtrOverflows: st.CtrOverflows,
	}
}

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// serveSampleCycles is the default gauge time-series sampling period in
// modeled cycles (the -sample flag overrides it).
const serveSampleCycles = 50000

// mux builds the serve-mode HTTP handler: /metrics (Prometheus text
// format), /statsz (the last published JSON document), /timeseries
// (the gauge/counter ring sampler's window as JSON), /debug/vars
// (expvar, including the registry bridge) and /debug/pprof/*.
func (s *serveSim) mux() *http.ServeMux {
	metrics.Publish("thoth", s.reg)
	m := http.NewServeMux()
	m.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		if err := metrics.WriteProm(w, s.reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/timeseries", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.sampler.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.published()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		http.DefaultServeMux.ServeHTTP(w, r) // expvar registers itself there
	})
	return m
}

// runServe implements the `thothsim serve` subcommand: boot the
// simulation, expose it over HTTP, and run workload rounds until the
// round budget is exhausted (-rounds) or an interrupt arrives
// (-rounds 0).
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thothsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
	machine := machineFlags(fs)
	wl := fs.String("workload", "btree", "benchmark: btree|ctree|hashmap|rbtree|swap")
	tx := fs.Int("tx", 128, "transaction size in bytes")
	setup := fs.Int("setup", 16384, "benchmark population")
	warmup := fs.Int("warmup", 1200, "warm-up transactions (before metrics reset)")
	round := fs.Int("round", 2000, "transactions (ops with -load) per serving round")
	rounds := fs.Int("rounds", 0, "rounds to run before exiting (0 = until interrupted)")
	loadScn := fs.String("load", "",
		"serve an open-loop load scenario instead of the workload harness "+
			"("+strings.Join(loadgen.ScenarioNames(), "|")+"; rounds issue -round ops)")
	tenants := fs.Int("tenants", 0, "tenant population for -load (0 = the scenario default)")
	shards := fs.Int("shards", 0, "with -load, drive a sharded pool at N controllers (0|1 = one controller)")
	sample := fs.Int64("sample", serveSampleCycles,
		"gauge time-series sampling period in modeled cycles (/timeseries window)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "thothsim serve:", msg)
		fs.Usage()
		return 2
	}
	switch {
	case *rounds < 0:
		return usage(fmt.Sprintf("-rounds %d must not be negative (0 = until interrupted)", *rounds))
	case *tenants != 0 && *loadScn == "":
		return usage("-tenants requires -load (the workload harness has no tenants)")
	case *shards != 0 && *loadScn == "":
		return usage("-shards requires -load (the workload harness drives one controller)")
	}

	cfg, err := machine()
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}
	cfg = cfg.WithTxSize(*tx)
	if *round <= 0 {
		fmt.Fprintf(stderr, "thothsim serve: round size %d must be positive\n", *round)
		return 1
	}

	var sim *serveSim
	served := *wl
	if *loadScn != "" {
		served = fmt.Sprintf("load(%s)", *loadScn)
		if *shards > 0 {
			served = fmt.Sprintf("load(%s, %d shards)", *loadScn, *shards)
		}
		sim, err = newLoadSim(cfg, *loadScn, *tenants, *shards, *round, *sample)
	} else {
		sim, err = newServeSim(cfg, *wl, *setup, *warmup, *round, *sample, nil)
	}
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "thothsim serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "serving workload=%s scheme=%v on http://%s  (/metrics /statsz /timeseries /debug/pprof/ /debug/vars)\n",
		served, cfg.Scheme, ln.Addr())
	return serveWith(sim, ln, *rounds, stdout, stderr)
}

// newServeServer builds the serve-mode HTTP server. A client that
// dribbles its request header one byte at a time (slowloris) must not
// pin a connection forever, hence ReadHeaderTimeout; no WriteTimeout,
// though — /debug/pprof/profile and /debug/pprof/trace stream for a
// caller-chosen duration.
func newServeServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveWith runs the serving loop over an already-bound listener: rounds
// of work until the budget is exhausted (-rounds 0 = until
// interrupted), with the HTTP server's failure, a simulation failure or
// an interrupt breaking the loop.
func serveWith(sim *serveSim, ln net.Listener, rounds int, stdout, stderr io.Writer) int {
	srv := newServeServer(sim.mux())
	// Serve's error must not be dropped: a listener failure mid-run
	// (socket closed underneath us, fd exhaustion) should stop the
	// simulation loop and exit non-zero instead of silently serving
	// nothing. The channel is buffered so the goroutine never leaks if
	// the loop exits first.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	// shutdown drains in-flight requests before exit; the deadline keeps
	// a stuck streaming handler from wedging the process (the deferred
	// Close above is the backstop).
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	info := sim.info
	fmt.Fprintf(stdout, "scheme %s: %s\n", info.Name, info.Guarantees)
	for _, tun := range info.Tunables {
		fmt.Fprintf(stdout, "  %s=%s\n", tun.Name, tun.Value)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	for n := 0; rounds == 0 || n < rounds; n++ {
		select {
		case <-interrupt:
			fmt.Fprintln(stdout, "interrupted; shutting down")
			shutdown()
			return 0
		case err := <-serveErr:
			// Shutdown has not been called yet, so this is never
			// ErrServerClosed — the listener genuinely failed.
			fmt.Fprintln(stderr, "thothsim serve:", err)
			return 1
		default:
		}
		if err := sim.round(); err != nil {
			fmt.Fprintln(stderr, "thothsim serve:", err)
			shutdown()
			return 1
		}
	}
	fmt.Fprintf(stdout, "completed %d rounds (%d %s) at cycle %d\n",
		rounds, rounds*sim.roundSize, sim.unit, sim.now())
	shutdown()
	return 0
}
