// Package recovery implements the post-crash restoration procedure of
// Section IV-D. Given the NVM image left behind by a crash (the volatile
// caches are gone; the ADR domain — WPQ contents, PCB partials, PUB
// bounds, and the on-chip tree root — was flushed), it:
//
//  1. Restores the PUB ring bounds from the control region.
//  2. Scans the PUB oldest-to-youngest. For every packed partial update
//     it performs verify-then-merge: the candidate counter is assembled
//     from the in-place major and the entry's minor, the first-level MAC
//     is recomputed over the in-place ciphertext under that counter, and
//     the second-level MAC is compared against the entry's. A match
//     proves the entry corresponds to the ciphertext in NVM, so its
//     counter and (recomputed first-level) MAC are merged into their
//     home blocks; a mismatch means the entry is stale — the metadata
//     block in place, or a younger entry, already carries newer state —
//     and it is skipped. (This is the paper's "fetch the corresponding
//     ciphertext, compute two levels of MAC, and use the second level of
//     MAC to verify".)
//  3. Rebuilds the Bonsai Merkle Tree bottom-up from the merged counter
//     region and verifies it against the persisted root. Any tampering
//     with the PUB, the counters, or replayed stale blocks surfaces here
//     (or earlier as an unmergeable-but-claimed-fresh entry).
//
// The package also provides the analytic recovery-time model behind the
// paper's "7 seconds for a 64MB PUB" claim.
package recovery

import (
	"errors"
	"fmt"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/layout"
	"repro/internal/macs"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/scheme"
)

// ErrRootMismatch is returned when the rebuilt tree root does not match
// the persisted root: the image is tampered or corrupt.
var ErrRootMismatch = errors.New("recovery: rebuilt tree root does not match persisted root")

// ErrNoControlState is returned when the image carries no usable ADR
// control state: the persisted root block or the PUB ring bounds are
// missing or corrupt. Serial and parallel recovery wrap it identically,
// so errors.Is(err, ErrNoControlState) holds on both paths.
var ErrNoControlState = errors.New("recovery: control region holds no usable state")

// blockStore is the device access recovery merging needs. The serial
// path passes the *nvm.Device directly; the parallel path passes
// per-worker nvm.Shard handles, so both run the exact same mergeEntry.
type blockStore interface {
	Peek(addr int64) []byte
	WriteBlock(addr int64, data []byte)
}

// Report summarizes one recovery run.
type Report struct {
	// PUBBlocks and PUBEntries are the ring contents scanned.
	PUBBlocks  int64
	PUBEntries int64
	// MergedCtr / MergedMAC count in-place metadata updates applied.
	MergedCtr int64
	MergedMAC int64
	// SkippedStale counts entries whose second-level MAC did not match
	// the in-place ciphertext (superseded by younger state).
	SkippedStale int64
	// RootVerified is true when the rebuilt tree matched the persisted
	// root.
	RootVerified bool
	// EstimatedCycles / EstimatedSeconds are the modeled recovery time
	// for the scanned PUB (Section IV-D's cost model; the parallel model
	// when Workers > 0).
	EstimatedCycles  int64
	EstimatedSeconds float64

	// Parallel recovery (RecoverParallel). Workers is the worker count
	// the run used (0 for the serial Recover); Shards is the per-shard
	// breakdown. ScanCycles, MergeCycles, RebuildCycles and VerifyCycles
	// are the modeled per-phase costs (merge and rebuild are critical
	// path: the maximum over workers, not the sum); the *WallNS fields
	// are measured host wall time per phase. None of these participate
	// in CountsEqual.
	Workers       int
	Shards        []ShardReport
	ScanCycles    int64
	MergeCycles   int64
	RebuildCycles int64
	VerifyCycles  int64
	ScanWallNS    int64
	MergeWallNS   int64
	RebuildWallNS int64
	VerifyWallNS  int64

	// Shadow-accelerated recovery (Anubis fast path; only populated when
	// the image was written with ShadowTracking enabled).
	ShadowCtrSuspects int64
	ShadowMACSuspects int64
	// FastRecoverySeconds models PUB merge + reconstruction of only the
	// suspect tree paths; FullRebuildSeconds models rebuilding the tree
	// over every written counter block.
	FastRecoverySeconds float64
	FullRebuildSeconds  float64
}

// String renders the report for logs.
func (r *Report) String() string {
	s := fmt.Sprintf("recovery: %d PUB blocks, %d entries (%d ctr + %d mac merged, %d stale), root ok=%v, est %.2fs",
		r.PUBBlocks, r.PUBEntries, r.MergedCtr, r.MergedMAC, r.SkippedStale,
		r.RootVerified, r.EstimatedSeconds)
	if r.ShadowCtrSuspects+r.ShadowMACSuspects > 0 {
		s += fmt.Sprintf("; shadow fast path: %d+%d suspects, %.3fs vs %.3fs full rebuild",
			r.ShadowCtrSuspects, r.ShadowMACSuspects,
			r.FastRecoverySeconds, r.FullRebuildSeconds)
	}
	if r.Workers > 0 {
		s += fmt.Sprintf("\n  parallel: %d workers; phases scan=%dcyc merge=%dcyc rebuild=%dcyc verify=%dcyc",
			r.Workers, r.ScanCycles, r.MergeCycles, r.RebuildCycles, r.VerifyCycles)
		for _, sh := range r.Shards {
			s += fmt.Sprintf("\n  shard %d: %d entries (%d ctr + %d mac merged, %d stale), %dcyc",
				sh.Shard, sh.Entries, sh.MergedCtr, sh.MergedMAC, sh.SkippedStale, sh.MergeCycles)
		}
	}
	return s
}

// ShardReport is one merge shard's slice of a parallel recovery run.
type ShardReport struct {
	// Shard is the shard index in [0, Workers).
	Shard int
	// Entries is how many PUB entries hashed to this shard.
	Entries int64
	// MergedCtr / MergedMAC / SkippedStale split Entries by outcome,
	// with the same meaning as the whole-run counters.
	MergedCtr    int64
	MergedMAC    int64
	SkippedStale int64
	// MergeCycles is the shard's modeled merge cost; WallNS the measured
	// host wall time its worker spent merging.
	MergeCycles int64
	WallNS      int64
}

// CountsEqual reports whether two runs recovered the same state: every
// semantic counter and the verification outcome must match. Timing
// (modeled cycles, wall clock) and parallel-engine shape (Workers,
// Shards, per-phase breakdowns) are ignored, so a serial and a parallel
// run over the same image compare equal exactly when they did the same
// work.
func (r *Report) CountsEqual(o *Report) bool {
	return r.PUBBlocks == o.PUBBlocks &&
		r.PUBEntries == o.PUBEntries &&
		r.MergedCtr == o.MergedCtr &&
		r.MergedMAC == o.MergedMAC &&
		r.SkippedStale == o.SkippedStale &&
		r.RootVerified == o.RootVerified &&
		r.ShadowCtrSuspects == o.ShadowCtrSuspects &&
		r.ShadowMACSuspects == o.ShadowMACSuspects
}

// Recover restores a crashed device image in place and verifies it. The
// configuration must match the one the image was created under (block
// size, seed/keys, PUB geometry).
func Recover(cfg config.Config, dev *nvm.Device) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sch, err := scheme.For(cfg)
	if err != nil {
		return nil, err
	}
	lay, err := layout.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := lay.CheckDevice(dev); err != nil {
		return nil, err
	}
	eng := crypt.NewEngine(cfg.Seed)
	rep := &Report{}

	savedRoot, err := core.LoadRoot(cfg.BlockSize, lay.CtlBase, dev.Peek)
	if err != nil {
		return nil, fmt.Errorf("%w: no persisted root: %v", ErrNoControlState, err)
	}

	if sch.UsesPUB() {
		ring := pub.NewRing(lay, dev)
		if err := ring.LoadCtl(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoControlState, err)
		}
		rep.PUBBlocks = ring.Len()
		// Per-entry cost along the Section IV-D model (EstimateCycles):
		// one block read per PUB block, then reads + MACs + writes per
		// entry. cyc stamps the emitted KindRecoveryMerge events so a
		// traced recovery renders as a timeline.
		read := cfg.ReadLatencyCycles()
		perEntry := 3*read + 2*int64(cfg.HashLatencyCycles) + 2*cfg.WriteLatencyCycles()
		cyc := int64(0)
		for _, blk := range ring.PeekAll() {
			cyc += read
			for _, e := range pub.UnpackBlock(cfg.BlockSize, blk) {
				rep.PUBEntries++
				cyc += perEntry
				mergeEntry(cfg, lay, eng, dev, e, rep, cyc)
			}
		}
	}

	// The scheme models its own recovery bill: PUB replay for the Thoth
	// schemes, a full tree rebuild for relaxed tree persistence, zero
	// for the strict baseline and co-location.
	rep.EstimatedCycles = sch.RecoveryCycles(cfg, rep.PUBBlocks, writtenCtrBlocks(lay, dev))
	rep.EstimatedSeconds = float64(rep.EstimatedCycles) / (cfg.CPUFreqGHz * 1e9)

	if cfg.ShadowTracking {
		estimateShadow(cfg, lay, dev, rep)
	}

	rep.RootVerified = bmt.Verify(lay, eng, dev, savedRoot)
	if !rep.RootVerified {
		return rep, ErrRootMismatch
	}
	return rep, nil
}

// writtenCtrBlocks counts the written blocks of the counter region —
// the size of the tree-rebuild bill a relaxed scheme pays at recovery.
func writtenCtrBlocks(lay *layout.Layout, dev *nvm.Device) int64 {
	var n int64
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(int64, []byte) { n++ })
	return n
}

// estimateShadow fills the Anubis-shadow-table recovery estimates
// (suspect counts, fast-path vs full-rebuild seconds); shared by the
// serial and parallel paths since it only reads the image.
func estimateShadow(cfg config.Config, lay *layout.Layout, dev *nvm.Device, rep *Report) {
	ctrSus, macSus := core.ShadowSuspects(lay, dev.Peek)
	rep.ShadowCtrSuspects = int64(len(ctrSus))
	rep.ShadowMACSuspects = int64(len(macSus))
	var written int64
	dev.ForEachWritten(lay.CtrBase, lay.CtrBytes, func(int64, []byte) { written++ })
	read := cfg.ReadLatencyCycles()
	write := cfg.WriteLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	levels := int64(lay.TreeLevels())
	perBlock := read + levels*hash + write
	shadowReads := (lay.ShadowBytes/int64(cfg.BlockSize) + 1) * read
	fast := rep.EstimatedCycles + shadowReads +
		(rep.ShadowCtrSuspects+rep.ShadowMACSuspects)*perBlock
	full := rep.EstimatedCycles + written*(read+levels*hash)
	rep.FastRecoverySeconds = float64(fast) / (cfg.CPUFreqGHz * 1e9)
	rep.FullRebuildSeconds = float64(full) / (cfg.CPUFreqGHz * 1e9)
}

// mergeEntry applies one partial update if it proves fresh against the
// in-place ciphertext. cyc is the modeled recovery cycle stamped on the
// emitted KindRecoveryMerge event. dev is a blockStore so the serial
// device and the parallel per-worker shard handles share this code:
// parallel determinism rests on every read and write here targeting
// blocks owned by the entry's shard group (the data ciphertext is
// read-only during merging, and the counter/MAC home blocks define the
// group).
func mergeEntry(cfg config.Config, lay *layout.Layout, eng *crypt.Engine, dev blockStore, e pub.Entry, rep *Report, cyc int64) {
	dataAddr := int64(e.BlockIndex) * int64(cfg.BlockSize)
	emit := func(detail string) {
		if cfg.Tracer == nil {
			return
		}
		cfg.Tracer.Emit(obs.Event{
			Kind:   obs.KindRecoveryMerge,
			Cycle:  cyc,
			Addr:   dataAddr,
			Scheme: cfg.Scheme.String(),
			Detail: detail,
		})
	}
	if dataAddr < lay.DataBase || dataAddr >= lay.DataBase+lay.DataBytes {
		// A corrupted entry; the root check will catch real damage, but
		// never dereference a bogus address.
		rep.SkippedStale++
		emit("out-of-range")
		return
	}
	ca := lay.CtrBlockAddr(dataAddr)
	cslot := lay.CtrSlot(dataAddr)
	ctrBlk := dev.Peek(ca)

	candidate := crypt.Counter{Major: ctr.Major(ctrBlk), Minor: e.Minor}
	ciphertext := dev.Peek(dataAddr)
	mac1 := eng.MAC(ciphertext, dataAddr, candidate, cfg.MACSize())
	if eng.MAC2(mac1) != e.MAC2 {
		rep.SkippedStale++
		emit("stale")
		return
	}

	// The entry matches the newest ciphertext: merge counter and MAC
	// into their home blocks.
	mergedCtr := false
	if ctr.Minor(ctrBlk, cslot) != e.Minor {
		ctr.SetMinor(ctrBlk, cslot, e.Minor)
		dev.WriteBlock(ca, ctrBlk)
		rep.MergedCtr++
		mergedCtr = true
	}
	ma := lay.MACBlockAddr(dataAddr)
	mslot := lay.MACSlot(dataAddr)
	macBlk := dev.Peek(ma)
	mergedMAC := false
	if !macs.Equal(macBlk, mslot, cfg.MACSize(), mac1) {
		macs.Set(macBlk, mslot, cfg.MACSize(), mac1)
		dev.WriteBlock(ma, macBlk)
		rep.MergedMAC++
		mergedMAC = true
	}
	switch {
	case mergedCtr && mergedMAC:
		emit("ctr+mac")
	case mergedCtr:
		emit("ctr")
	case mergedMAC:
		emit("mac")
	default:
		emit("noop")
	}
}

// EstimateCycles models the PUB-merge recovery cost (footnote 5 of the
// paper): for each PUB block, one block read; for each entry, reads of
// the counter block, ciphertext and MAC block, two MAC computations, and
// writes of the counter and MAC blocks. The formula lives with the
// Thoth scheme implementation (scheme.PUBReplayCycles).
func EstimateCycles(cfg config.Config, pubBlocks int64) int64 {
	return scheme.PUBReplayCycles(cfg, pubBlocks)
}

// EstimateSeconds converts EstimateCycles to wall-clock seconds.
func EstimateSeconds(cfg config.Config, pubBlocks int64) float64 {
	return float64(EstimateCycles(cfg, pubBlocks)) / (cfg.CPUFreqGHz * 1e9)
}

// EstimateCyclesParallel models sharded recovery: the PUB scan stays
// sequential (one block read per PUB block, in FIFO order), while the
// per-entry verify-then-merge work — which dominates, at two MAC
// computations plus three reads and two writes per entry — divides
// across the workers. Workers <= 1 reduces to EstimateCycles exactly.
func EstimateCyclesParallel(cfg config.Config, pubBlocks int64, workers int) int64 {
	if workers <= 1 {
		return EstimateCycles(cfg, pubBlocks)
	}
	read := cfg.ReadLatencyCycles()
	write := cfg.WriteLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	perEntry := 3*read + 2*hash + 2*write
	entries := pubBlocks * int64(cfg.PartialsPerBlock())
	merge := (entries*perEntry + int64(workers) - 1) / int64(workers)
	return pubBlocks*read + merge
}

// EstimateSecondsParallel converts EstimateCyclesParallel to seconds.
func EstimateSecondsParallel(cfg config.Config, pubBlocks int64, workers int) float64 {
	return float64(EstimateCyclesParallel(cfg, pubBlocks, workers)) / (cfg.CPUFreqGHz * 1e9)
}
