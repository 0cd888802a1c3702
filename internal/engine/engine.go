// Package engine implements the sharded multi-controller front-end: one
// logical protected data pool address-partitioned across N independent
// controller shards, each with its own WPQ, PCB, PUB, integrity tree and
// crypto engine over its slice of the pool.
//
// Partitioning is by metadata *group* — lcm(BlocksPerPage, MACsPerBlock)
// consecutive data blocks, the unit proven safe to shard by the parallel
// recovery engine (see internal/recovery/parallel.go): all counter- and
// MAC-block sharing is confined to one group, so routing whole groups
// keeps every read-modify-write of shared metadata inside a single
// controller. Groups stripe round-robin across shards (group g lives on
// shard g mod N), which makes the one-shard pool's address map the
// identity — a one-shard Pool is byte-identical to a plain single
// controller, the property the differential tests pin.
//
// Each shard runs one goroutine owning its controller, fed by a bounded
// mailbox; front-end calls split a request at group boundaries, dispatch
// the segments to their shards, and wait. The Pool is safe for
// concurrent use by multiple goroutines (unlike a single System): the
// mailboxes serialize each shard's stream while distinct shards proceed
// in parallel.
package engine

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// Sentinel errors, shared with the byte-range port and the public thoth
// package (which alias them so errors.Is works uniformly across System
// and Pool).
var (
	// ErrCrashed reports an operation on a pool that has crashed or shut
	// down.
	ErrCrashed = core.ErrCrashed
	// ErrOutOfRange reports an access outside the protected data region.
	ErrOutOfRange = core.ErrOutOfRange
)

// MaxShards bounds the shard count; beyond this the per-shard controller
// footprint (caches, PUB) dwarfs any modeled parallelism.
const MaxShards = 64

// mailboxDepth is the bounded per-shard request queue. Deep enough to
// keep a shard busy while the front-end fans out, shallow enough that a
// stalled shard backpressures its producers quickly.
const mailboxDepth = 64

// WriteReq is one full-block write of a PersistBatch: a block-aligned
// offset into the protected data region and exactly BlockSize bytes of
// data. The slice is only read during the call.
type WriteReq struct {
	Addr int64
	Data []byte
}

// opKind selects a shard worker operation.
type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opBatch
	opStats
	opVerify
	opCrash
	opShutdown
)

// req is one unit of work mailed to a shard worker. The worker fills the
// result fields and calls wg.Done; the Done/Wait pair publishes them to
// the dispatcher (happens-before), so no further locking is needed.
type req struct {
	kind  opKind
	shard int

	addr int64  // local data-region offset on the shard
	data []byte // write payload or read destination (caller-owned)

	batch []core.WriteReq // opBatch: translated, DataBase-rebased requests

	arrival int64 // opWrite / opRead: modeled arrival cycle of the op

	// span, when non-nil on an opWrite / opRead request, receives the
	// segment's per-stage latency attribution: the shard's port charges
	// the mailbox wait (arrival → service start) to SpanQueue and the
	// controller charges the service, so the segment's stage cycles sum
	// exactly to done − arrival.
	span *obs.Span

	wg *sync.WaitGroup

	// Results.
	err    error
	done   int64            // opWrite / opRead: completion cycle of the segment
	stats  stats.Stats      // opStats
	dev    *nvm.Device      // opCrash / opShutdown
	flight obs.FlightRecord // opCrash / opShutdown: the shard's black box
}

// shard is one controller partition: a goroutine owning the port (the
// controller and its modeled clock), reading requests from mail until
// it is closed.
type shard struct {
	idx  int
	port *core.Port
	mail chan *req
	done chan struct{}

	// Per-shard observability, nil when the pool config carries no
	// metrics registry.
	mOps    *metrics.Counter
	mBlocks *metrics.Counter
	mCycles *metrics.Gauge
	mMail   *metrics.Gauge
}

// Pool is the sharded multi-controller system over one logical data
// region. Construct with New (fresh devices) or Open (existing images).
// All methods are safe for concurrent use.
type Pool struct {
	cfg        config.Config // pool-level config (full MemBytes)
	shardCfg   config.Config // per-shard config (MemBytes / n)
	n          int
	groupBytes int64 // metadata-group span in bytes
	perShard   int64 // usable data bytes per shard (multiple of groupBytes)
	dataBase   int64 // DataBase of the (identical) per-shard layouts

	mu      sync.RWMutex // RLock: ops; Lock: crash/shutdown
	crashed bool
	shards  []*shard
}

// shardConfig derives the per-shard configuration and the pool geometry:
// each shard models an independent controller (its own caches, WPQ, PCB
// and PUB at their configured sizes — per-instance resources, as on real
// multi-channel controllers) over MemBytes/shards of the module.
func shardConfig(cfg config.Config, shards int) (config.Config, error) {
	if shards < 1 || shards > MaxShards {
		return config.Config{}, fmt.Errorf("engine: shard count %d not in [1,%d]", shards, MaxShards)
	}
	if err := cfg.Validate(); err != nil {
		return config.Config{}, err
	}
	if cfg.MemBytes%int64(shards) != 0 {
		return config.Config{}, fmt.Errorf("engine: MemBytes %d not divisible by %d shards", cfg.MemBytes, shards)
	}
	scfg := cfg
	scfg.MemBytes = cfg.MemBytes / int64(shards)
	if err := scfg.Validate(); err != nil {
		return config.Config{}, fmt.Errorf("engine: per-shard config: %w", err)
	}
	return scfg, nil
}

// newPool builds the pool skeleton and spins the shard workers; attach
// constructs each shard's controller (fresh for New, image-attached for
// Open).
func newPool(cfg config.Config, shards int, attach func(scfg config.Config, i int) (*core.Controller, error)) (*Pool, error) {
	scfg, err := shardConfig(cfg, shards)
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		// Shard workers emit concurrently; serialize for plain tracers.
		lt := obs.Locked(cfg.Tracer)
		cfg.Tracer = lt
		scfg.Tracer = lt
	}
	lay, err := layout.New(scfg)
	if err != nil {
		return nil, err
	}
	group := recovery.GroupBlocks(scfg) * int64(scfg.BlockSize)
	perShard := lay.DataBytes / group * group
	if perShard <= 0 {
		return nil, fmt.Errorf("engine: shard data region %dB cannot hold one %dB metadata group",
			lay.DataBytes, group)
	}
	p := &Pool{
		cfg:        cfg,
		shardCfg:   scfg,
		n:          shards,
		groupBytes: group,
		perShard:   perShard,
		dataBase:   lay.DataBase,
		shards:     make([]*shard, shards),
	}
	for i := range p.shards {
		ctl, err := attach(scfg, i)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		sh := &shard{
			idx:  i,
			port: core.NewPort(ctl),
			mail: make(chan *req, mailboxDepth),
			done: make(chan struct{}),
		}
		if cfg.Metrics != nil {
			lbl := metrics.Label{Key: "shard", Value: strconv.Itoa(i)}
			sh.mOps = cfg.Metrics.Counter("thoth_pool_shard_ops_total",
				"Requests processed by this pool shard.", lbl)
			sh.mBlocks = cfg.Metrics.Counter("thoth_pool_shard_blocks_total",
				"Data blocks persisted by this pool shard.", lbl)
			sh.mCycles = cfg.Metrics.Gauge("thoth_pool_shard_cycles",
				"Modeled cycle clock of this pool shard.", lbl)
			sh.mMail = cfg.Metrics.Gauge("thoth_pool_shard_mailbox_depth",
				"Requests waiting in this pool shard's mailbox.", lbl)
		}
		p.shards[i] = sh
		go sh.run()
	}
	return p, nil
}

// New creates a pool of shards fresh (zeroed) controllers and devices.
func New(cfg config.Config, shards int) (*Pool, error) {
	return newPool(cfg, shards, func(scfg config.Config, _ int) (*core.Controller, error) {
		return core.New(scfg)
	})
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return p.n }

// Config returns the pool-level configuration.
func (p *Pool) Config() config.Config { return p.cfg }

// BlockSize returns the access granularity in bytes.
func (p *Pool) BlockSize() int { return p.cfg.BlockSize }

// DataSize returns the usable protected data region in bytes: the sum of
// the shard slices, each floored to a whole number of metadata groups.
func (p *Pool) DataSize() int64 { return int64(p.n) * p.perShard }

// GroupBytes returns the metadata-group span in bytes — the routing
// granularity: offsets within one group always land on one shard.
func (p *Pool) GroupBytes() int64 { return p.groupBytes }

// ShardOf returns the shard owning the data-region offset.
func (p *Pool) ShardOf(addr int64) int {
	s, _ := p.locate(addr)
	return s
}

// locate maps a pool data offset to (shard, local shard data offset).
// Whole groups stripe round-robin: group g lives on shard g mod n at
// local group slot g div n. With n == 1 this is the identity map.
func (p *Pool) locate(addr int64) (int, int64) {
	g := addr / p.groupBytes
	return int(g % int64(p.n)), p.localOf(addr)
}

// localOf is locate's offset half.
func (p *Pool) localOf(addr int64) int64 {
	g := addr / p.groupBytes
	return (g/int64(p.n))*p.groupBytes + addr%p.groupBytes
}

// checkRange validates a data-region access. Callers hold p.mu.RLock.
func (p *Pool) checkRange(addr int64, n int) error {
	switch {
	case p.crashed:
		return fmt.Errorf("%w; recover the pool image and Open a new pool", ErrCrashed)
	case addr < 0 || n < 0 || addr+int64(n) > p.DataSize():
		return fmt.Errorf("%w: range [%d,+%d) outside data region of %d bytes",
			ErrOutOfRange, addr, n, p.DataSize())
	}
	return nil
}

// dispatch mails the requests to their shards and waits for all of them,
// joining errors in request order.
func (p *Pool) dispatch(rs []*req) error {
	var wg sync.WaitGroup
	wg.Add(len(rs))
	for _, r := range rs {
		r.wg = &wg
		p.shards[r.shard].mail <- r
	}
	wg.Wait()
	var errs []error
	for _, r := range rs {
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}
	return errors.Join(errs...)
}

// segment splits the byte range [addr, addr+n) at group boundaries and
// calls fn(shard, local, off, length) for each piece, where off is the
// piece's offset within the range.
func (p *Pool) segment(addr int64, n int, fn func(shard int, local, off, length int64)) {
	for off := int64(0); off < int64(n); {
		cur := addr + off
		take := p.groupBytes - cur%p.groupBytes
		if rem := int64(n) - off; take > rem {
			take = rem
		}
		sh := int(cur / p.groupBytes % int64(p.n))
		fn(sh, p.localOf(cur), off, take)
		off += take
	}
}

// Write persists data at the given pool offset: encrypted, MACed, bound
// into the owning shard's integrity tree, crash-consistent per the
// configured scheme. Segments on distinct shards persist concurrently;
// each shard applies its segments in submission order. It is WriteArrive
// at cycle 0, which never holds a shard clock back.
func (p *Pool) Write(addr int64, data []byte) error {
	_, err := p.WriteArrive(0, addr, data, nil)
	return err
}

// Read returns n bytes from the given pool offset, decrypting and
// verifying every covered block on its owning shard.
func (p *Pool) Read(addr int64, n int) ([]byte, error) {
	p.mu.RLock()
	err := p.checkRange(addr, n)
	p.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := p.ReadArrive(0, addr, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// PersistBatch persists a batch of full-block writes, scattering the
// requests to their owning shards (each shard preserves the submission
// order of its share and runs the batched parallel pipeline of
// Config.PersistWorkers). The batch is validated before any request
// commits, so an invalid request leaves the pool untouched.
func (p *Pool) PersistBatch(reqs []WriteReq) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	bs := int64(p.cfg.BlockSize)
	for i := range reqs {
		if err := p.checkRange(reqs[i].Addr, len(reqs[i].Data)); err != nil {
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
	perShard := make([][]core.WriteReq, p.n)
	for i := range reqs {
		sh := int(reqs[i].Addr / p.groupBytes % int64(p.n))
		perShard[sh] = append(perShard[sh], core.WriteReq{
			Addr: p.dataBase + p.localOf(reqs[i].Addr),
			Data: reqs[i].Data,
		})
	}
	var rs []*req
	for sh, creqs := range perShard {
		if len(creqs) > 0 {
			rs = append(rs, &req{kind: opBatch, shard: sh, batch: creqs})
		}
	}
	return p.dispatch(rs)
}

// all builds one request of the given kind per shard.
func (p *Pool) all(kind opKind) []*req {
	rs := make([]*req, p.n)
	for i := range rs {
		rs[i] = &req{kind: kind, shard: i}
	}
	return rs
}

// Stats returns the pooled statistics: the counter-wise sum of every
// shard's snapshot, with Cycles replaced by the shard maximum — the
// pool's modeled makespan, since shards run concurrently.
func (p *Pool) Stats() (stats.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crashed {
		return stats.Stats{}, ErrCrashed
	}
	rs := p.all(opStats)
	if err := p.dispatch(rs); err != nil {
		return stats.Stats{}, err
	}
	var pooled stats.Stats
	var makespan int64
	for _, r := range rs {
		if r.stats.Cycles > makespan {
			makespan = r.stats.Cycles
		}
		pooled = pooled.Add(r.stats)
	}
	pooled.Cycles = makespan
	return pooled, nil
}

// ShardStats returns one shard's statistics snapshot, Cycles stamped to
// that shard's modeled clock.
func (p *Pool) ShardStats(i int) (stats.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crashed {
		return stats.Stats{}, ErrCrashed
	}
	if i < 0 || i >= p.n {
		return stats.Stats{}, fmt.Errorf("engine: shard %d not in [0,%d)", i, p.n)
	}
	r := &req{kind: opStats, shard: i}
	if err := p.dispatch([]*req{r}); err != nil {
		return stats.Stats{}, err
	}
	return r.stats, nil
}

// Elapsed returns the pool's modeled makespan in cycles: the maximum
// shard clock.
func (p *Pool) Elapsed() (int64, error) {
	st, err := p.Stats()
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// SchemeInfo reports the persistence scheme the shards run under (all
// shards share one configuration).
func (p *Pool) SchemeInfo() scheme.Info {
	return p.shards[0].port.Controller().SchemeInfo()
}

// VerifyCrashConsistency checks every shard's crash-recoverability
// invariant without perturbing the pool.
func (p *Pool) VerifyCrashConsistency() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.crashed {
		return ErrCrashed
	}
	return p.dispatch(p.all(opVerify))
}

// CrashShards models a partial power failure: shards with crash[i] true
// lose their volatile state (only the ADR domain survives, as
// System.Crash), the rest power down cleanly (System.Shutdown, needing
// no recovery). The pool is dead afterwards; recover the returned image
// with RecoverPool and reopen with Open. The error joins per-shard ADR
// flush failures — the image is still returned for diagnosis.
func (p *Pool) CrashShards(crash []bool) (*PoolImage, error) {
	if len(crash) != p.n {
		return nil, fmt.Errorf("engine: crash mask has %d entries for %d shards", len(crash), p.n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return nil, ErrCrashed
	}
	rs := make([]*req, p.n)
	for i := range rs {
		kind := opShutdown
		if crash[i] {
			kind = opCrash
		}
		rs[i] = &req{kind: kind, shard: i}
	}
	var wg sync.WaitGroup
	wg.Add(len(rs))
	for _, r := range rs {
		r.wg = &wg
		p.shards[r.shard].mail <- r
	}
	wg.Wait()
	img := &PoolImage{
		Shards:  p.n,
		Crashed: append([]bool(nil), crash...),
		Devices: make([]*nvm.Device, p.n),
		Flights: make([]obs.FlightRecord, p.n),
	}
	var errs []error
	for i, r := range rs {
		img.Devices[i] = r.dev
		img.Flights[i] = r.flight
		if r.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, r.err))
		}
	}
	p.stop()
	return img, errors.Join(errs...)
}

// Crash crashes every shard: a whole-pool power failure.
func (p *Pool) Crash() (*PoolImage, error) {
	crash := make([]bool, p.n)
	for i := range crash {
		crash[i] = true
	}
	return p.CrashShards(crash)
}

// Shutdown powers every shard down cleanly; the returned image needs no
// recovery.
func (p *Pool) Shutdown() (*PoolImage, error) {
	return p.CrashShards(make([]bool, p.n))
}

// stop closes the mailboxes and joins the workers. Callers hold p.mu.
func (p *Pool) stop() {
	p.crashed = true
	for _, sh := range p.shards {
		close(sh.mail)
	}
	for _, sh := range p.shards {
		<-sh.done
	}
}

// run is the shard worker loop: it owns the controller and the modeled
// clock exclusively, so the op handlers below need no locking.
func (s *shard) run() {
	defer close(s.done)
	for r := range s.mail {
		s.handle(r)
	}
}

// handle executes one request, converting panics (bad geometry, device
// range violations) into errors so one poisoned request cannot take the
// whole pool down.
func (s *shard) handle(r *req) {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("engine: shard %d: panic: %v", s.idx, v)
		}
	}()
	if s.mOps != nil {
		s.mOps.Inc()
	}
	if s.mMail != nil {
		s.mMail.Set(int64(len(s.mail)))
	}
	switch r.kind {
	case opWrite:
		r.done, r.err = s.port.Write(r.arrival, r.addr, r.data, r.span)
		if s.mBlocks != nil {
			bs := int64(s.port.BlockSize())
			s.mBlocks.Add((r.addr+int64(len(r.data))+bs-1)/bs - r.addr/bs)
		}
	case opRead:
		r.done, r.err = s.port.Read(r.arrival, r.addr, r.data, r.span)
	case opBatch:
		s.port.PersistBatch(r.batch)
		if s.mBlocks != nil {
			s.mBlocks.Add(int64(len(r.batch)))
		}
	case opStats:
		r.stats = s.port.Stats()
	case opVerify:
		r.err = s.port.Controller().VerifyCrashConsistency()
	case opCrash:
		r.err = s.port.Crash()
		r.dev = s.port.Controller().Device()
		// Snapshot after the crash so the black box includes the ADR
		// flush events of the crash sequence itself.
		r.flight = s.port.Controller().FlightRecord()
	case opShutdown:
		r.err = s.port.Shutdown()
		r.dev = s.port.Controller().Device()
		r.flight = s.port.Controller().FlightRecord()
	}
	if s.mCycles != nil {
		s.mCycles.Set(s.port.Now())
	}
}
