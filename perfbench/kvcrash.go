package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	thoth "repro"
)

// kv-crash sizes: kvRecords records of 90–110 bytes, each at a seeded
// offset inside its own kvSlot-byte slot, so records start unaligned
// and straddle 128-byte blocks in every pattern. The measured phase is
// kvOps mixed operations, kvWritePct percent of them writes.
const (
	kvRecords  = 16384
	kvSlot     = 160
	kvOps      = 100000
	kvWritePct = 50
)

// kvRecord is one record's place in the data region.
type kvRecord struct {
	addr int64
	n    int
}

// kvInputs are the generated inputs of one kv-crash repetition.
type kvInputs struct {
	recs []kvRecord
	// init is every record's first value, back to back.
	init []byte
	// ops: record index, and for writes the offset of the new value in
	// vals (-1 for a read).
	opRec []int
	opVal []int
	vals  []byte
}

// kvCache keeps the inputs of the last seed: every repetition of a run
// replays the same inputs, generated once outside the timed phases.
var kvCache struct {
	seed int64
	in   *kvInputs
}

func kvGenerate(seed int64) *kvInputs {
	if kvCache.in != nil && kvCache.seed == seed {
		return kvCache.in
	}
	rng := rand.New(rand.NewSource(seed))
	in := &kvInputs{recs: make([]kvRecord, kvRecords)}
	for i := range in.recs {
		n := 90 + rng.Intn(21)
		off := rng.Intn(kvSlot - n + 1)
		in.recs[i] = kvRecord{addr: int64(i)*kvSlot + int64(off), n: n}
	}
	for _, rc := range in.recs {
		in.init = append(in.init, randBytes(rng, rc.n)...)
	}
	in.opRec = make([]int, kvOps)
	in.opVal = make([]int, kvOps)
	for i := range in.opRec {
		in.opRec[i] = rng.Intn(kvRecords)
		in.opVal[i] = -1
		if rng.Intn(100) < kvWritePct {
			in.opVal[i] = len(in.vals)
			in.vals = append(in.vals, randBytes(rng, in.recs[in.opRec[i]].n)...)
		}
	}
	kvCache.seed, kvCache.in = seed, in
	return in
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// runKVCrash is one repetition of kv-crash: records written and read
// through thoth.System's byte-range front end, every read checked
// inline against a shadow of the acknowledged bytes, then Crash,
// SaveImage, LoadImage, Recover, Open and a read-back of every record.
func runKVCrash(seed int64, m mode) (*rep, error) {
	r := newRep()
	cfg := quickConfig(seed)
	in := kvGenerate(seed)
	shadow := make([]byte, kvRecords*kvSlot)
	opHost := make([]int64, kvOps)
	var writeLat, readLat []int64
	writeLat = make([]int64, 0, kvOps)
	readLat = make([]int64, 0, kvOps)

	t0 := time.Now()
	sys, err := thoth.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("new system: %w", err)
	}
	off := 0
	for _, rc := range in.recs {
		v := in.init[off : off+rc.n]
		off += rc.n
		if err := sys.Write(rc.addr, v); err != nil {
			return nil, fmt.Errorf("populate %#x: %w", rc.addr, err)
		}
		copy(shadow[rc.addr:], v)
	}
	r.host["setup_s"] = time.Since(t0).Seconds()

	st0 := sys.Stats()
	c0 := sys.Elapsed()
	var writeNS, readNS int64
	allocs := startAllocs()
	tm := time.Now()
	for i, ri := range in.opRec {
		rc := in.recs[ri]
		c := sys.Elapsed()
		if vo := in.opVal[i]; vo >= 0 {
			v := in.vals[vo : vo+rc.n]
			t := time.Now()
			err := sys.Write(rc.addr, v)
			d := int64(time.Since(t))
			opHost[i], writeNS = d, writeNS+d
			writeLat = append(writeLat, sys.Elapsed()-c)
			if !r.pass(err == nil) {
				r.note("write %#x: %v", rc.addr, err)
				continue
			}
			copy(shadow[rc.addr:], v)
			continue
		}
		t := time.Now()
		got, err := sys.Read(rc.addr, rc.n)
		d := int64(time.Since(t))
		opHost[i], readNS = d, readNS+d
		readLat = append(readLat, sys.Elapsed()-c)
		if !r.pass(err == nil && bytes.Equal(got, shadow[rc.addr:rc.addr+int64(rc.n)])) {
			r.note("read %#x: %v", rc.addr, err)
		}
	}
	measured := time.Since(tm)
	r.host["allocs_per_op"] = allocs.since() / kvOps
	st := sys.Stats().Sub(st0)
	cycles := sys.Elapsed() - c0

	r.host["host_tx_per_s"] = kvOps / measured.Seconds()
	r.host["host_ops_per_s"] = r.host["host_tx_per_s"]
	r.host["host_op_p50_us"] = float64(quantile(opHost, 0.50)) / 1e3
	r.host["host_op_p99_us"] = float64(quantile(opHost, 0.99)) / 1e3
	r.samples = kvOps
	if m == modeTimed {
		r.layer["thoth.write_s"] = float64(writeNS) / 1e9
		r.layer["thoth.read_s"] = float64(readNS) / 1e9
	}
	r.model["cycles"] = float64(cycles)
	r.model["model_cycles_per_tx"] = float64(cycles) / kvOps
	r.model["model_cycles_per_op"] = r.model["model_cycles_per_tx"]
	r.model["model_write_p50_cycles"] = float64(quantile(writeLat, 0.50))
	r.model["model_write_p99_cycles"] = float64(quantile(writeLat, 0.99))
	r.model["model_read_p99_cycles"] = float64(quantile(readLat, 0.99))
	modelCounts(r, &st, kvOps)
	notePeakHeap(r)

	dev, err := sys.Crash()
	r.check(err == nil, "crash: %v", err)
	img, load, err := imageRoundTrip(r, m, dev)
	if err != nil {
		return nil, err
	}
	notePeakHeap(r)
	rec, err := recoverImage(r, m, cfg, img)
	if err != nil {
		return nil, err
	}
	finishRecovery(r)
	r.host["recover_s"] = (load + rec).Seconds()

	sys2, err := thoth.Open(cfg, img)
	if err != nil {
		return nil, fmt.Errorf("open recovered image: %w", err)
	}
	for _, rc := range in.recs {
		got, err := sys2.Read(rc.addr, rc.n)
		if !r.pass(err == nil && bytes.Equal(got, shadow[rc.addr:rc.addr+int64(rc.n)])) {
			r.note("record %#x after recovery: %v", rc.addr, err)
		}
	}
	return r, nil
}
