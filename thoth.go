// Package thoth is a library implementation of Thoth (HPCA 2023):
// crash-consistent secure non-volatile memory for emerging memory
// interfaces that expose no host-visible ECC bits.
//
// The package wraps a full secure-memory-controller model: AES-CTR
// memory encryption with split counters, Bonsai-Merkle-Tree integrity
// with an eagerly maintained on-chip root, write-back metadata caches,
// an ADR-backed write-pending queue — and Thoth's contribution, the
// persistent combining buffer (PCB) plus the off-chip partial updates
// buffer (PUB) with the WTSC/WTBC eviction policies. Every write is
// applied byte-accurately to a modeled NVM device, so crash injection,
// recovery, and tamper detection behave like the real system, while a
// deterministic timing model accounts cycles for the paper's
// performance experiments.
//
// # Quick start
//
//	sys, err := thoth.New(thoth.DefaultConfig())
//	...
//	sys.Write(0, data)           // persistent, encrypted, integrity-protected
//	img := sys.Crash()           // power failure: volatile state is gone
//	rep, err := thoth.Recover(sys.Config(), img)
//	sys2, err := thoth.Open(sys.Config(), img)
//	plain, err := sys2.Read(0)
//
// For the paper's evaluation, use RunWorkload (single configuration) or
// NewExperiments (every figure and table); see cmd/experiments.
package thoth

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// Sentinel errors for the two access-failure classes. They are wrapped
// with call-site detail; test with errors.Is. The same sentinels are
// returned by both System and Pool (the values live in internal/core,
// whose byte-range port both front ends share).
var (
	// ErrCrashed reports an operation on a system that has crashed (or
	// shut down). Recover the device image and Open a new system.
	ErrCrashed = core.ErrCrashed
	// ErrOutOfRange reports an access outside the protected data region.
	ErrOutOfRange = core.ErrOutOfRange
)

// Config is the machine configuration (Table I parameters plus sweep
// knobs). Construct with DefaultConfig and adjust.
type Config = config.Config

// Scheme selects the persistence engine. It is a small comparable
// constructor-backed value: use the package variables below for the
// fixed schemes, TriadRelaxed for the parameterized one, and
// ParseScheme to decode a Scheme.String() name. The zero value is the
// strict baseline.
type Scheme = config.Scheme

// The available persistence schemes. These are variables only because a
// constructor-backed struct cannot be a Go constant; treat them as
// constants. The historical names (BaselineStrict, WTSC, WTBC,
// AnubisECC) keep working as aliases.
var (
	// BaselineStrict is the paper's baseline: Anubis adapted to future
	// interfaces, strictly persisting counter and MAC blocks per write.
	BaselineStrict = config.BaselineStrict
	// Baseline is a shorter alias for BaselineStrict.
	Baseline = config.BaselineStrict
	// WTSC is Thoth with the status-check eviction policy (the paper's
	// adopted design).
	WTSC = config.ThothWTSC
	// WTBC is Thoth with the precise bitmask-check eviction policy.
	WTBC = config.ThothWTBC
	// AnubisECC is the hypothetical ECC-co-location ideal of Section V-F.
	AnubisECC = config.AnubisECC
)

// TriadRelaxed returns a Triad-NVM-style relaxed-persistence scheme:
// counters and MACs persist strictly like the baseline, but dirty
// integrity-tree nodes are only checkpointed every epoch persisted
// blocks, trading recovery work (a full tree rebuild) for tree-write
// amplification. Config.Validate rejects epoch < 1.
func TriadRelaxed(epoch int) Scheme { return config.TriadRelaxed(epoch) }

// ParseScheme decodes a Scheme.String() name ("thoth-wtsc",
// "triad-relaxed-64", ...) back into the Scheme — the strict inverse
// used by trace/JSONL schemeTag consumers. CLI-style aliases ("wtsc",
// "thoth", "triad") are handled by the scheme registry in the command
// front-ends, not here.
func ParseScheme(name string) (Scheme, error) { return config.ParseScheme(name) }

// DefaultConfig returns the paper's Table I configuration with the WTSC
// scheme, 128-byte cache blocks and a 64MB PUB.
func DefaultConfig() Config { return config.Default() }

// SchemeInfo describes a persistence scheme: its canonical name, a
// human-readable statement of the persistence guarantees it provides,
// and its tunables (eviction policy, checkpoint epoch, ...). It is what
// `thothsim serve` prints in its banner and serves in /statsz.
type SchemeInfo = scheme.Info

// SchemeTunable is one name/value tunable of a SchemeInfo.
type SchemeTunable = scheme.Tunable

// Device is the byte-accurate NVM module image. It survives crashes and
// can be carried across System instances.
type Device = nvm.Device

// RecoveryReport summarizes a recovery run (Section IV-D).
type RecoveryReport = recovery.Report

// ErrRootMismatch is returned by Recover when the rebuilt integrity-tree
// root does not match the persisted root (tampering or corruption).
var ErrRootMismatch = recovery.ErrRootMismatch

// ErrNoControlState is returned by Recover and RecoverParallel when the
// image carries no usable ADR control state (missing or corrupt root
// block or PUB ring bounds). Test with errors.Is.
var ErrNoControlState = recovery.ErrNoControlState

// RecoverOpts configures RecoverParallel.
type RecoverOpts = recovery.RecoverOpts

// Stats is the run-statistics block (write categories, PUB eviction
// outcomes, cache hit rates, stall cycles).
type Stats = stats.Stats

// StatsSnapshot is an immutable copy of the controller statistics at one
// instant. Stats is fully value-copyable, so a snapshot is a plain value:
// it never changes after it is taken, and snapshots subtract
// (StatsDelta) to measure intervals.
type StatsSnapshot = stats.Stats

// Tracing. Set Config.Tracer (RunConfig.Config.Tracer for a benchmark
// run) to a Tracer and the controller streams every notable internal
// event to it: PCB flushes, PUB evictions with their Figure-3 outcome,
// counter overflows, WPQ drains with their reason, metadata-cache
// evictions, tree updates, and recovery merges. A nil tracer is free:
// the disabled path performs no allocation and no call.

// Tracer receives controller events. Implementations must be cheap;
// they run inline in the simulation loop.
type Tracer = obs.Tracer

// TraceEvent is one controller event: what happened (Kind), when in
// modeled cycles, to which NVM address, under which scheme.
type TraceEvent = obs.Event

// TraceKind identifies the type of a TraceEvent.
type TraceKind = obs.Kind

// The event kinds a Tracer can observe.
const (
	// TracePCBFlush: a packed partial-updates block left the PCB for the
	// PUB ring. Addr is the ring address, Aux the entry count.
	TracePCBFlush = obs.KindPCBFlush
	// TracePUBEvict: the eviction engine processed one partial update.
	// Addr is the metadata home block, Aux the ring address it came
	// from, Detail the Figure-3 outcome.
	TracePUBEvict = obs.KindPUBEvict
	// TraceCtrOverflow: a minor counter overflowed and its page was
	// re-encrypted. Addr is the page base.
	TraceCtrOverflow = obs.KindCtrOverflow
	// TraceWPQDrain: a write left the WPQ coalescing window. Detail is
	// the drain reason (watermark, age, stall, flush).
	TraceWPQDrain = obs.KindWPQDrain
	// TraceCacheEvict: a metadata cache evicted a line. Part names the
	// cache (ctr, mac, mt); Aux is 1 when the line was dirty.
	TraceCacheEvict = obs.KindCacheEvict
	// TraceTreeUpdate: an integrity-tree node was persisted. Aux is the
	// tree level.
	TraceTreeUpdate = obs.KindTreeUpdate
	// TraceRecoveryMerge: recovery processed one PUB entry. Detail says
	// what merged (ctr+mac, ctr, mac, noop, stale, out-of-range).
	TraceRecoveryMerge = obs.KindRecoveryMerge
	// TraceRecoveryPhase: a recovery phase boundary (Part is scan, merge,
	// rebuild or verify; Detail is begin or end; Aux is 0 for the whole
	// phase, shard+1 for a parallel worker's slice). The Chrome exporter
	// renders these as duration spans on per-shard tracks.
	TraceRecoveryPhase = obs.KindRecoveryPhase
	// TracePersistStage: a PersistBatch commit boundary (Part is commit;
	// Detail is begin or end; Aux is the batch size). The Chrome exporter
	// renders these as duration spans on a dedicated pipeline track.
	TracePersistStage = obs.KindPersistStage
)

// TraceRing is a bounded in-memory tracer keeping the most recent
// events; use it to observe a window of activity without I/O.
type TraceRing = obs.Ring

// NewTraceRing returns a TraceRing holding the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// JSONLTracer streams events to a writer as one JSON object per line
// (the schema cmd/tracecheck validates). Close flushes; the underlying
// writer stays open.
type JSONLTracer = obs.JSONL

// NewJSONLTracer returns a JSONLTracer writing to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// ChromeTracer exports events in Chrome trace_event format: load the
// output in Perfetto (ui.perfetto.dev) or chrome://tracing to see each
// event kind on its own track along the modeled timeline.
type ChromeTracer = obs.Chrome

// NewChromeTracer returns a ChromeTracer writing to w, converting
// cycles to microseconds at cpuGHz (pass cfg.CPUFreqGHz; values <= 0
// fall back to 1 GHz). Call Close to terminate the JSON array.
func NewChromeTracer(w io.Writer, cpuGHz float64) *ChromeTracer {
	return obs.NewChrome(w, cpuGHz)
}

// MultiTracer fans one event stream out to several tracers.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// FlightRecord is the crash flight recorder's snapshot: the most recent
// controller events (an always-on, bounded black box kept even with no
// Tracer installed), plus how many older events the ring dropped.
// System.FlightRecord takes the snapshot; WriteJSONL dumps it in the
// JSONL trace schema cmd/tracecheck validates.
type FlightRecord = obs.FlightRecord

// Metrics. Set Config.Metrics to a MetricsRegistry and the controller
// natively records write critical-path latency and PUB ring occupancy;
// wrap the same registry with MetricsFromTracer and install the result
// as the Tracer to also derive per-event counters and cycle-latency
// histograms (WPQ residency, PCB batch fill, PUB entry age, recovery
// phases) from the event stream. `thothsim serve` exposes such a
// registry live over HTTP, and cmd/tracemetrics rebuilds one from a
// recorded JSONL trace.

// MetricsRegistry collects named counters, gauges and log2-bucketed
// cycle histograms. All updates are atomic: a registry may be read
// (scraped) concurrently while the simulation writes to it.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// MetricsFromTracer returns a Tracer that folds every controller event
// into reg — per-kind event counters plus the derived cycle-latency
// histograms. The adapter allocates nothing per event; combine it with
// other tracers via MultiTracer.
func MetricsFromTracer(reg *MetricsRegistry) Tracer { return metrics.FromTracer(reg) }

// WriteMetricsProm renders reg in Prometheus text exposition format
// (version 0.0.4), exactly as `thothsim serve` answers /metrics.
func WriteMetricsProm(w io.Writer, reg *MetricsRegistry) error { return metrics.WriteProm(w, reg) }

// System is a secure NVM system: the processor-side controller plus the
// device. Addresses passed to Read/Write are offsets into the protected
// data region, starting at zero. A System is not safe for concurrent
// use.
type System struct {
	cfg       config.Config
	ctl       *core.Controller
	port      *core.Port  // the modeled clock and the byte-range front end
	lastStats stats.Stats // baseline for StatsDelta

	// batchScratch stages the translated requests of PersistBatch,
	// reused across calls so steady-state batching does not allocate.
	batchScratch []core.WriteReq
}

// System reads and writes at arbitrary byte offsets; expose the standard
// positional-I/O interfaces so it composes with io helpers.
var (
	_ io.ReaderAt = (*System)(nil)
	_ io.WriterAt = (*System)(nil)
)

// New creates a system with a fresh (zeroed) device.
func New(cfg Config) (*System, error) {
	ctl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, ctl: ctl, port: core.NewPort(ctl)}, nil
}

// Open attaches a system to an existing device image — one left by
// Shutdown, or by Crash followed by a successful Recover. The
// configuration must match the image (block size, seed, geometry).
func Open(cfg Config, dev *Device) (*System, error) {
	ctl, err := core.Attach(cfg, dev)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, ctl: ctl, port: core.NewPort(ctl)}, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// DataSize returns the usable protected data region in bytes.
func (s *System) DataSize() int64 { return s.port.DataSize() }

// BlockSize returns the access granularity in bytes.
func (s *System) BlockSize() int { return s.cfg.BlockSize }

// Write persists data at the given offset. The write is encrypted,
// MACed, bound into the integrity tree, and made crash-consistent per
// the configured scheme. Unaligned or partial-block writes perform
// read-modify-write on the affected blocks.
func (s *System) Write(addr int64, data []byte) error {
	_, err := s.port.Write(0, addr, data, nil)
	return err
}

// WriteReq is one full-block write of a PersistBatch: a block-aligned
// offset into the protected data region and exactly BlockSize bytes of
// data. The slice is only read during the call. System.PersistBatch and
// Pool.PersistBatch share the type.
type WriteReq = engine.WriteReq

// PersistBatch persists a batch of full-block writes in request order.
// The device image, statistics and modeled cycles are bit-identical to
// calling Write for each request in order, and requests become durable
// in order.
//
// Every request must be block-aligned and exactly one block long
// (PersistBatch is the aligned fast path; Write handles read-modify-
// write for everything else). The batch is validated before any request
// commits, so an invalid request leaves the system untouched.
func (s *System) PersistBatch(reqs []WriteReq) error {
	bs := int64(s.cfg.BlockSize)
	for i := range reqs {
		if err := s.port.Check(reqs[i].Addr, len(reqs[i].Data)); err != nil {
			return fmt.Errorf("batch request %d: %w", i, err)
		}
		if reqs[i].Addr%bs != 0 || int64(len(reqs[i].Data)) != bs {
			return fmt.Errorf("batch request %d: %w: [%d,+%d) is not one aligned block",
				i, ErrOutOfRange, reqs[i].Addr, len(reqs[i].Data))
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	base := s.ctl.Layout().DataBase
	creqs := s.batchScratch[:0]
	for i := range reqs {
		creqs = append(creqs, core.WriteReq{Addr: base + reqs[i].Addr, Data: reqs[i].Data})
	}
	s.port.PersistBatch(creqs)
	for i := range creqs {
		creqs[i].Data = nil // drop payload references until the next batch
	}
	s.batchScratch = creqs
	return nil
}

// Read returns n bytes from the given offset, decrypting and verifying
// every covered block.
func (s *System) Read(addr int64, n int) ([]byte, error) {
	if err := s.port.Check(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := s.port.Read(0, addr, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAt implements io.ReaderAt over the protected data region. Reads
// past the end of the region are truncated and return io.EOF, per the
// io.ReaderAt contract.
func (s *System) ReadAt(p []byte, off int64) (int, error) {
	if s.ctl.Crashed() || off < 0 {
		return 0, s.port.Check(off, 0)
	}
	if off >= s.DataSize() {
		return 0, io.EOF
	}
	n := len(p)
	short := false
	if int64(n) > s.DataSize()-off {
		n = int(s.DataSize() - off)
		short = true
	}
	out, err := s.Read(off, n)
	if err != nil {
		return 0, err
	}
	copy(p, out)
	if short {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt over the protected data region. Unlike
// ReadAt it does not truncate: a write extending past the region fails
// with ErrOutOfRange and nothing is written.
func (s *System) WriteAt(p []byte, off int64) (int, error) {
	if err := s.Write(off, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Crash models a power failure: only the ADR domain survives (WPQ, PCB
// partials flushed to the PUB, the PUB bounds, the on-chip root). It
// returns the device image; the System itself is dead afterwards. A
// non-nil error means the ADR residual-power flush could not persist
// every pending partial update (a controller invariant violation); the
// image is still returned for diagnosis, but recovery may not verify.
func (s *System) Crash() (*Device, error) {
	err := s.port.Crash()
	return s.ctl.Device(), err
}

// Shutdown performs a clean power-down: all dirty metadata is persisted
// in place and the image needs no recovery. Returns the device image,
// and a non-nil error under the same condition as Crash.
func (s *System) Shutdown() (*Device, error) {
	err := s.port.Shutdown()
	return s.ctl.Device(), err
}

// Device returns the live device image (for inspection; tampering with
// it models an attacker).
func (s *System) Device() *Device { return s.ctl.Device() }

// FlightRecord snapshots the controller's crash flight recorder: the
// most recent events in arrival order. Taken after Crash it is the
// black box of the failure — the crash-sequence events (ADR flush, PUB
// seals) are the tail of the record.
func (s *System) FlightRecord() FlightRecord { return s.ctl.FlightRecord() }

// Root returns the current on-chip integrity-tree root.
func (s *System) Root() uint64 { return s.ctl.Root() }

// SchemeInfo reports the persistence scheme this system runs under:
// canonical name, persistence guarantees, and tunables.
func (s *System) SchemeInfo() SchemeInfo { return s.ctl.SchemeInfo() }

// VerifyCrashConsistency checks, without perturbing the system, that a
// crash at this instant would be recoverable: every security-metadata
// update not yet persisted in place is covered by a live partial update
// in the ADR domain (PCB or PUB). It returns a descriptive error on the
// first violation found.
func (s *System) VerifyCrashConsistency() error {
	if s.ctl.Crashed() {
		return ErrCrashed
	}
	return s.ctl.VerifyCrashConsistency()
}

// Elapsed returns the modeled execution time in core cycles.
func (s *System) Elapsed() int64 { return s.port.Now() }

// ElapsedSeconds converts Elapsed to seconds at the configured clock.
func (s *System) ElapsedSeconds() float64 {
	return float64(s.port.Now()) / (s.cfg.CPUFreqGHz * 1e9)
}

// Stats returns an immutable snapshot of the controller statistics at
// this instant, with Cycles stamped to the system's current modeled
// time. The snapshot is a value: it does not change as the system keeps
// running, and two snapshots subtract with Stats.Sub to measure an
// interval. (Earlier versions returned a live *Stats pointer; see
// CHANGES.md for the migration.)
//
// Snapshots are comparable only within the lifetime of the System that
// produced them. A System opened after Crash + Recover starts its
// controller counters (and its modeled clock) from zero, so subtracting
// a pre-crash snapshot from a post-recovery one does not measure an
// interval — it yields negative fields wherever the old incarnation had
// counted more. See Stats.Sub and StatsDelta for the exact semantics.
func (s *System) Stats() StatsSnapshot { return s.port.Stats() }

// StatsDelta returns the statistics accumulated since the previous
// StatsDelta call (or since the system was created) and advances the
// baseline. It is the convenient form of taking two Stats snapshots and
// subtracting them.
//
// The baseline belongs to this System: it does not survive a crash.
// After Crash + Recover + Open, the new System begins with a zero
// baseline, so its first StatsDelta covers exactly the work done since
// recovery — deltas never wrap negative within one incarnation, because
// controller counters only increase. Feeding a snapshot saved from a
// previous incarnation into StatsSnapshot.Sub by hand is the only way
// to see negative fields, and those mark a reset boundary, not
// overflow (see Stats.Sub).
func (s *System) StatsDelta() StatsSnapshot {
	cur := s.Stats()
	d := cur.Sub(s.lastStats)
	s.lastStats = cur
	return d
}

// SaveImage serializes a device image to w (crash images survive
// process restarts; pair with LoadImage).
func SaveImage(dev *Device, w io.Writer) error { return dev.Save(w) }

// LoadImage reconstructs a device image written by SaveImage.
func LoadImage(r io.Reader) (*Device, error) { return nvm.LoadImage(r) }

// Recover restores a crashed device image in place (merging the PUB's
// partial updates into their home metadata blocks) and verifies the
// integrity-tree root. Returns ErrRootMismatch on tampering.
func Recover(cfg Config, dev *Device) (*RecoveryReport, error) {
	return recovery.Recover(cfg, dev)
}

// RecoverParallel is Recover with the PUB merge and tree rebuild sharded
// across worker goroutines (opts.Workers; <= 0 means GOMAXPROCS). It
// produces a byte-identical device image, the same sentinel errors, and
// an equal report (Report.CountsEqual) as the serial Recover for any
// worker count; the report additionally carries the per-shard and
// per-phase breakdowns.
func RecoverParallel(cfg Config, dev *Device, opts RecoverOpts) (*RecoveryReport, error) {
	return recovery.RecoverParallel(cfg, dev, opts)
}

// EstimateRecoverySeconds models the added recovery time for a PUB of
// the configured size (Section IV-D; ~7s for the default 64MB PUB).
func EstimateRecoverySeconds(cfg Config) float64 {
	return recovery.EstimateSeconds(cfg, cfg.PUBBlocks())
}

// EstimateParallelRecoverySeconds is EstimateRecoverySeconds under the
// sharded model: the PUB scan stays sequential, the per-entry
// verify-then-merge work divides across workers.
func EstimateParallelRecoverySeconds(cfg Config, workers int) float64 {
	return recovery.EstimateSecondsParallel(cfg, cfg.PUBBlocks(), workers)
}

// Region is one contiguous range of the NVM address map.
type Region struct {
	Base, Bytes int64
}

// Regions describes the NVM address map of a configuration: where the
// protected data, counter blocks, MAC blocks, integrity-tree levels,
// the PUB ring and the ADR control block live. Tests and attack models
// use it to target specific persisted structures.
//
// TreeBase/TreeBytes lump every integrity-tree level into one span;
// TreeLevels additionally reports each level on its own (level 0 holds
// the hashes over the counter blocks, the last level is the root's
// children).
type Regions struct {
	DataBase, DataBytes int64
	CtrBase, CtrBytes   int64
	MACBase, MACBytes   int64
	TreeBase, TreeBytes int64
	PUBBase, PUBBytes   int64
	CtlBase, CtlBytes   int64

	TreeLevels []Region
}

// RegionsOf computes the address map for a configuration.
func RegionsOf(cfg Config) (Regions, error) {
	lay, err := layout.New(cfg)
	if err != nil {
		return Regions{}, err
	}
	levels := make([]Region, lay.TreeLevels())
	for i := range levels {
		levels[i] = Region{
			Base:  lay.TreeBase[i],
			Bytes: lay.TreeNodes[i] * int64(cfg.BlockSize),
		}
	}
	return Regions{
		DataBase: lay.DataBase, DataBytes: lay.DataBytes,
		CtrBase: lay.CtrBase, CtrBytes: lay.CtrBytes,
		MACBase: lay.MACBase, MACBytes: lay.MACBytes,
		TreeBase: lay.TreeBase[0], TreeBytes: lay.PUBBase - lay.TreeBase[0],
		PUBBase: lay.PUBBase, PUBBytes: lay.PUBBytes,
		CtlBase: lay.CtlBase, CtlBytes: lay.CtlBytes,
		TreeLevels: levels,
	}, nil
}

// RunConfig describes one benchmark simulation (see cmd/thothsim).
type RunConfig = harness.RunConfig

// RunResult is the outcome of a benchmark simulation.
type RunResult = harness.Result

// RunWorkload runs one benchmark (btree, ctree, hashmap, rbtree, swap)
// against one configuration and returns its measurements.
func RunWorkload(rc RunConfig) (*RunResult, error) { return harness.Run(rc) }

// ReplayResult summarizes a trace replay.
type ReplayResult = harness.ReplayResult

// Replay drives the secure memory controller from a textual memory
// trace (the cmd/tracegen format: L/S/P ops with addresses and sizes,
// F for fences, # comments). Externally captured traces run against
// any configured scheme with the same LLC filter and persistence
// semantics as the built-in benchmarks.
func Replay(cfg Config, r io.Reader) (*ReplayResult, error) {
	return harness.Replay(cfg, r)
}

// WorkloadNames lists the available benchmarks.
func WorkloadNames() []string {
	return []string{"btree", "ctree", "hashmap", "rbtree", "swap"}
}

// Sharded multi-controller pool. A Pool address-partitions one logical
// protected data region across N independent controller shards — each
// with its own WPQ, PCB, PUB, integrity tree and crypto engine over its
// slice — and routes requests by metadata group (lcm(BlocksPerPage,
// MACsPerBlock) consecutive blocks, the unit the parallel recovery
// engine proved safe to shard). Unlike a System, a Pool is safe for
// concurrent use: each op runs on the calling goroutine under its
// shard's lock, which serializes each shard's stream while callers on
// distinct shards run in parallel. A one-shard Pool is byte-identical
// to a System over the same config.

// Pool is the sharded multi-controller system. Construct with NewPool,
// or OpenPool for an existing image.
type Pool = engine.Pool

// PoolImage is the persistent state a pool leaves after Crash,
// CrashShards or Shutdown: one device image per shard plus which shards
// crashed. RecoverPool repairs it; OpenPool re-attaches to it.
type PoolImage = engine.PoolImage

// PoolReport is RecoverPool's outcome: one RecoveryReport per crashed
// shard (nil entries for shards that shut down cleanly).
type PoolReport = engine.PoolReport

// MaxPoolShards bounds NewPool's shard count.
const MaxPoolShards = engine.MaxShards

// NewPool creates a pool of shards fresh controllers over fresh (zeroed)
// devices. cfg.MemBytes must divide evenly by shards; each shard models
// an independent controller (its own caches, WPQ, PCB and PUB at their
// configured sizes) over MemBytes/shards of the module.
func NewPool(cfg Config, shards int) (*Pool, error) { return engine.New(cfg, shards) }

// OpenPool attaches a pool to an existing image — one left by
// Pool.Shutdown, or by Pool.CrashShards followed by a successful
// RecoverPool.
func OpenPool(cfg Config, shards int, img *PoolImage) (*Pool, error) {
	return engine.Open(cfg, shards, img)
}

// RecoverPool restores a crashed pool image in place, running the
// parallel recovery engine over every crashed shard concurrently (clean
// shards are skipped). Sentinel errors (ErrRootMismatch,
// ErrNoControlState) surface through the joined error; test with
// errors.Is.
func RecoverPool(cfg Config, shards int, img *PoolImage, opts RecoverOpts) (*PoolReport, error) {
	return engine.RecoverPool(cfg, shards, img, opts)
}

// Experiments drives the paper's full evaluation (figures 3, 8-12,
// tables II/III, the Section V-F comparison, and crash recovery).
type Experiments = harness.Experiments

// ExperimentScale sets simulation magnitude for the experiment suite.
type ExperimentScale = harness.Scale

// DefaultScale is the standard experiment scale (seconds per run).
func DefaultScale() ExperimentScale { return harness.DefaultScale() }

// QuickScale is an order of magnitude smaller, for smoke testing.
func QuickScale() ExperimentScale { return harness.QuickScale() }

// NewExperiments builds an experiment driver writing its report to w.
func NewExperiments(sc ExperimentScale, w io.Writer) *Experiments {
	return harness.NewExperiments(sc, w)
}
