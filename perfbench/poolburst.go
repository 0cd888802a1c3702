package main

import (
	"bytes"
	"fmt"
	"time"

	thoth "repro"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

// pool-burst sizes: loadgen's burst scenario (MMPP on/off arrivals, 80%
// writes, 64 tenants) over a 4-shard pool, with a larger op budget than
// the scenario's 20000 so the modeled tail spans more bursts.
const (
	poolShards   = 4
	poolBurstOps = 160000
	poolSetups   = 5
	// poolMemBytes keeps the uniformly spread footprint, and with it the
	// host memory of the device images, small.
	poolMemBytes = 64 << 20
)

// burstTarget is the benchmark-owned loadgen.SpanTarget in front of
// loadgen's PoolTarget. It records every op's exact modeled latency
// (completion − arrival), accumulates the stage decomposition per op
// kind, and in timed repetitions times each call into the engine.
type burstTarget struct {
	inner *loadgen.PoolTarget
	timed bool

	engineNS int64
	writeLat []int64
	readLat  []int64
	stages   [2][obs.NumStages]int64 // [write, read]
	leak     int64                   // summed |stage total − latency|

	// The last op, checked by the caller outside the timed window.
	lastKind loadgen.OpKind
	lastAddr int64
	lastData []byte
}

func (t *burstTarget) BlockSize() int  { return t.inner.BlockSize() }
func (t *burstTarget) DataSize() int64 { return t.inner.DataSize() }

func (t *burstTarget) Write(arrival, addr int64, data []byte) (int64, error) {
	return t.WriteSpan(arrival, addr, data, nil)
}

func (t *burstTarget) Read(arrival, addr int64, dst []byte) (int64, error) {
	return t.ReadSpan(arrival, addr, dst, nil)
}

func (t *burstTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	var done int64
	var err error
	if t.timed {
		t0 := time.Now()
		done, err = t.inner.WriteSpan(arrival, addr, data, span)
		t.engineNS += int64(time.Since(t0))
	} else {
		done, err = t.inner.WriteSpan(arrival, addr, data, span)
	}
	t.writeLat = append(t.writeLat, done-arrival)
	t.record(0, span, done-arrival)
	t.lastKind, t.lastAddr, t.lastData = loadgen.OpWrite, addr, data
	return done, err
}

func (t *burstTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	var done int64
	var err error
	if t.timed {
		t0 := time.Now()
		done, err = t.inner.ReadSpan(arrival, addr, dst, span)
		t.engineNS += int64(time.Since(t0))
	} else {
		done, err = t.inner.ReadSpan(arrival, addr, dst, span)
	}
	t.readLat = append(t.readLat, done-arrival)
	t.record(1, span, done-arrival)
	t.lastKind, t.lastAddr, t.lastData = loadgen.OpRead, addr, dst
	return done, err
}

// record folds an op's stage decomposition into the per-kind totals and
// the conservation error.
func (t *burstTarget) record(kind int, span *obs.Span, lat int64) {
	if span == nil {
		return
	}
	for st, v := range span.Stages {
		t.stages[kind][st] += v
	}
	if d := span.Total() - lat; d != 0 {
		t.leak += max(d, -d)
	}
}

// runPoolBurst is one repetition of pool-burst: the burst scenario run
// open loop against a fresh 4-shard pool, every read checked against a
// shadow of the acknowledged payloads, then a whole-pool crash, an image
// round trip per shard, RecoverPool, and a read-back of every written
// block from the reopened pool.
func runPoolBurst(seed int64, m mode) (*rep, error) {
	r := newRep()
	cfg := quickConfig(seed)
	cfg.MemBytes = poolMemBytes
	scn, err := loadgen.ScenarioByName("burst")
	if err != nil {
		return nil, err
	}
	scn.Seed = seed
	scn.Ops = poolBurstOps
	// last holds the Seq+1 of the last acknowledged write per address
	// (FillPayload derives the bytes from Seq and address); presized so
	// the measured phase allocates only what the program allocates.
	last := make(map[int64]int64, poolBurstOps)

	// Set-up takes well under a millisecond, so one construction is at
	// the mercy of a page fault; build poolSetups pools and drivers,
	// report the median construction time and keep the last.
	var (
		pool   *thoth.Pool
		tgt    *burstTarget
		d      *loadgen.Driver
		setups = make([]float64, poolSetups)
	)
	for i := range setups {
		if pool != nil {
			if _, err := pool.Shutdown(); err != nil {
				return nil, fmt.Errorf("shut down spare pool: %w", err)
			}
		}
		t0 := time.Now()
		pool, err = thoth.NewPool(cfg, poolShards)
		if err != nil {
			return nil, fmt.Errorf("new pool: %w", err)
		}
		tgt = &burstTarget{inner: loadgen.NewPoolTarget(pool), timed: m == modeTimed}
		d, err = loadgen.NewDriver(scn, tgt, cfg, nil, loadgen.Options{Attribution: m == modeTimed})
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			pool.Shutdown()
			return nil, fmt.Errorf("new driver: %w", err)
		}
	}
	r.host["setup_s"] = median(setups)
	tgt.writeLat = make([]int64, 0, poolBurstOps)
	tgt.readLat = make([]int64, 0, poolBurstOps)

	opHost := make([]int64, 0, poolBurstOps)
	want := make([]byte, pool.BlockSize())
	var op loadgen.Op
	var genNS, execNS int64
	allocs := startAllocs()
	tm := time.Now()
	for {
		t := time.Now()
		if !d.GenOp(&op) {
			break
		}
		var tg time.Time
		if m == modeTimed {
			tg = time.Now()
		}
		err := d.ExecOp(&op)
		te := time.Now()
		if m == modeTimed {
			genNS += int64(tg.Sub(t))
			execNS += int64(te.Sub(tg))
		}
		opHost = append(opHost, int64(te.Sub(t)))
		if !r.pass(err == nil) {
			r.note("op %d: %v", op.Seq, err)
		}
		checkBurstOp(r, tgt, &op, last, want)
	}
	measured := time.Since(tm)
	ops := int64(len(opHost))
	r.host["allocs_per_op"] = allocs.since() / float64(ops)
	st, err := pool.Stats()
	if err != nil {
		return nil, fmt.Errorf("pool stats: %w", err)
	}

	r.host["host_tx_per_s"] = float64(ops) / measured.Seconds()
	r.host["host_ops_per_s"] = r.host["host_tx_per_s"]
	r.host["host_op_p50_us"] = float64(quantile(opHost, 0.50)) / 1e3
	r.host["host_op_p99_us"] = float64(quantile(opHost, 0.99)) / 1e3
	r.samples = len(opHost)
	if m == modeTimed {
		r.layer["loadgen.gen_s"] = float64(genNS) / 1e9
		r.layer["engine.op_s"] = float64(tgt.engineNS) / 1e9
		r.layer["loadgen.exec_self_s"] = float64(execNS-tgt.engineNS) / 1e9
		burstStages(r, tgt)
	}
	r.model["ops"] = float64(ops)
	r.model["model_cycles_per_tx"] = float64(st.Cycles) / float64(ops)
	r.model["model_cycles_per_op"] = r.model["model_cycles_per_tx"]
	r.model["model_write_p50_cycles"] = float64(quantile(tgt.writeLat, 0.50))
	r.model["model_write_p99_cycles"] = float64(quantile(tgt.writeLat, 0.99))
	r.model["model_read_p99_cycles"] = float64(quantile(tgt.readLat, 0.99))
	r.model["writes"] = float64(len(tgt.writeLat))
	modelCounts(r, &st, ops)
	r.pin = d.EventHash()
	notePeakHeap(r)

	if err := burstRecover(r, m, cfg, pool, last); err != nil {
		return nil, err
	}
	return r, nil
}

// checkBurstOp checks the op just executed against the shadow: a read
// must return the last acknowledged payload of its block (zeros if the
// block was never written); a write becomes the acknowledged payload.
func checkBurstOp(r *rep, tgt *burstTarget, op *loadgen.Op, last map[int64]int64, want []byte) {
	if !r.pass(tgt.lastAddr == op.Addr && tgt.lastKind == op.Kind) {
		r.note("op %d did not reach the target", op.Seq)
		return
	}
	if op.Kind == loadgen.OpWrite {
		last[op.Addr] = op.Seq + 1
		return
	}
	expectBlock(want, last[op.Addr], op.Addr)
	if !r.pass(bytes.Equal(tgt.lastData, want)) {
		r.note("read of %#x returned stale or corrupt bytes", op.Addr)
	}
}

// expectBlock fills want with the acknowledged payload of addr: the
// FillPayload bytes of write seq1-1, or zeros when seq1 is 0.
func expectBlock(want []byte, seq1, addr int64) {
	if seq1 == 0 {
		clear(want)
		return
	}
	loadgen.FillPayload(want, seq1-1, addr)
}

// burstStages emits the modeled stage shares of write and read latency.
func burstStages(r *rep, tgt *burstTarget) {
	for kind, name := range []string{"write", "read"} {
		var total int64
		for _, v := range tgt.stages[kind] {
			total += v
		}
		for _, st := range obs.Stages() {
			r.model["stage."+name+"."+st.String()+"_frac"] = frac(tgt.stages[kind][st], total)
		}
	}
	r.model["stage.conservation_err_cycles"] = float64(tgt.leak)
	r.check(tgt.leak == 0, "stage cycles leak %d cycles against op latency", tgt.leak)
}

// burstRecover crashes the whole pool, round-trips every shard image,
// recovers the pool with one worker per shard, and reads every written
// block back from the reopened pool.
func burstRecover(r *rep, m mode, cfg thoth.Config, pool *thoth.Pool, last map[int64]int64) error {
	img, err := pool.Crash()
	r.check(err == nil, "pool crash: %v", err)
	if img == nil {
		return fmt.Errorf("pool crash: %w", err)
	}
	var load time.Duration
	for i, dev := range img.Devices {
		loaded, d, err := imageRoundTrip(r, m, dev)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		img.Devices[i] = loaded
		load += d
	}
	notePeakHeap(r)
	t0 := time.Now()
	prep, err := thoth.RecoverPool(cfg, poolShards, img, thoth.RecoverOpts{Workers: 1})
	rec := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recover pool: %w", err)
	}
	for _, rr := range prep.Shards {
		addRecovery(r, m, rr)
	}
	finishRecovery(r)
	r.host["recover_s"] = (load + rec).Seconds()

	p2, err := thoth.OpenPool(cfg, poolShards, img)
	if err != nil {
		return fmt.Errorf("open pool: %w", err)
	}
	defer p2.Shutdown()
	want := make([]byte, p2.BlockSize())
	for addr, seq1 := range last {
		got, err := p2.Read(addr, len(want))
		expectBlock(want, seq1, addr)
		if !r.pass(err == nil && bytes.Equal(got, want)) {
			r.note("block %#x after recovery: %v", addr, err)
		}
	}
	return nil
}
