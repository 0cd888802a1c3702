// Package scheme defines the pluggable persistence-scheme API of the
// secure memory controller. A PersistScheme owns every policy decision
// that used to be a cfg.Scheme branch inside core, recovery and the
// harness: what happens to the counter/MAC metadata when a data block
// persists, whether an evicted PUB partial still obliges a full-block
// write-back, whether dirty tree nodes persist on natural cache
// eviction, and how much work recovery is modeled to cost.
//
// The controller remains the mechanism: it exposes the Host interface
// (strict persists through the WPQ, PCB insertion, co-location, tree
// checkpointing) and the scheme composes those primitives into a
// policy. Adding a scheme therefore means implementing PersistScheme,
// wiring it into For, and registering a name in Parse — the crashfuzz
// differential oracle, the recovery engines and the experiment drivers
// pick it up without modification.
//
// The three pre-existing engines (baseline-strict, thoth-wtsc,
// thoth-wtbc) moved behind this interface byte-identically: the
// crashfuzz scheme_gate_test pins their images, stats and cycles
// against oracles generated before the extraction. The AnubisECC
// comparator and the Triad-NVM-style relaxed scheme (TriadRelaxed)
// complete the zoo.
package scheme

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypt"
	"repro/internal/pub"
	"repro/internal/stats"
)

// WriteCtx carries the per-persist state a scheme's metadata decision
// needs. The controller owns one reusable instance (the persist hot
// path is allocation-free); schemes must not retain it past the call.
type WriteCtx struct {
	// Addr is the data block address; BlockIndex is Addr/BlockSize.
	Addr       int64
	BlockIndex uint32
	// CtrLine / MACLine are the cached (already fetched and updated)
	// counter and MAC blocks covering Addr.
	CtrLine *cache.Line
	MACLine *cache.Line
	// Counter is the post-bump split counter of the block.
	Counter crypt.Counter
	// MAC1 is the freshly computed first-level MAC; a scheme that needs
	// the second-level MAC asks the Host.
	MAC1 []byte
	// WasCtrDirty / WasMACDirty are the lines' dirty bits sampled
	// before this update (the WTSC status-bit semantics: the state the
	// update transitions from).
	WasCtrDirty bool
	WasMACDirty bool
}

// EvictCtx carries the per-partial state behind a PUB-eviction
// write-back decision (one per counter half and one per MAC half of an
// evicted entry). The precise Figure-3 classification is recorded by
// the controller regardless of policy; the scheme only picks the
// action.
type EvictCtx struct {
	// LinePresent / LineDirty describe the metadata block's cache line
	// at eviction time.
	LinePresent bool
	LineDirty   bool
	// Current reports that the entry is the newest update to its slot:
	// the cached value matches and the slot's fine-grain dirty bit is
	// set (the WTBC bitmask check).
	Current bool
	// WasDirty is the entry's status bit: the block was already dirty
	// when the update was made, so an older live entry carries the
	// write-back responsibility (the WTSC status check).
	WasDirty bool
}

// Host is the mechanism surface the controller offers a scheme. All
// methods account device bytes, channel occupancy and statistics
// exactly like the historical in-core paths they were extracted from.
type Host interface {
	// PersistCtrStrict writes the full counter block covering w.Addr
	// through the WPQ at cycle t, cleans the line, and returns the
	// completion cycle.
	PersistCtrStrict(t int64, w *WriteCtx) int64
	// PersistMACStrict is PersistCtrStrict for the MAC block.
	PersistMACStrict(t int64, w *WriteCtx) int64
	// CoLocateMetadata persists both metadata blocks as a side effect of
	// the data write (the AnubisECC ECC-bit/parallel-chip assumption):
	// device bytes update and lines clean, but no WPQ slot, no channel
	// time and no write is accounted.
	CoLocateMetadata(w *WriteCtx)
	// MAC2 computes the second-level 8B MAC over a first-level MAC.
	MAC2(mac1 []byte) uint64
	// PCBInsert coalesces or appends one partial update into the PCB
	// (the augmented PCB-before-WPQ arrangement) and returns the
	// completion cycle.
	PCBInsert(t int64, e pub.Entry) int64
	// PCBInsertAfter routes one partial update through the PCB-after-WPQ
	// arrangement: the metadata block writes enter the WPQ carrying the
	// bundled partial.
	PCBInsertAfter(t int64, dataAddr int64, e pub.Entry) int64
	// FlushDirtyTreeNodes persists every dirty Merkle-tree cache node in
	// place and cleans it (the Triad checkpoint primitive).
	FlushDirtyTreeNodes()
	// Stats exposes the run-statistics block for scheme-owned counters.
	Stats() *stats.Stats
	// HashLatency is the modeled hash-unit latency in cycles.
	HashLatency() int64
}

// Tunable is one named scheme parameter surfaced by Info.
type Tunable struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Info describes a scheme instance for banners, /statsz and docs.
type Info struct {
	// Name is the canonical scheme name (config.Scheme.String()).
	Name string `json:"name"`
	// Guarantees is a one-line statement of the persistence guarantee.
	Guarantees string `json:"guarantees"`
	// Tunables lists the scheme's parameters, if any.
	Tunables []Tunable `json:"tunables,omitempty"`
}

// PersistScheme is one persistence policy. Implementations may carry
// mutable state (the Triad checkpoint countdown), so For returns a
// fresh instance per controller.
type PersistScheme interface {
	// Scheme returns the config value the instance was built from.
	Scheme() config.Scheme
	// Info describes the scheme for banners and /statsz.
	Info() Info
	// UsesPUB reports whether the scheme runs the PCB/PUB machinery
	// (and therefore needs the ring, the ADR PCB flush, and the
	// PUB-merge recovery scan).
	UsesPUB() bool
	// PersistTreeOnCacheEvict reports whether dirty Merkle-tree cache
	// victims persist on natural eviction (the lazy write-back of
	// Table I). Relaxed schemes return false and checkpoint instead.
	PersistTreeOnCacheEvict() bool
	// PersistMetadata makes the block's counter/MAC updates durable per
	// the policy, starting at cycle t, and returns the cycle at which
	// the metadata persistence completes (never before t).
	PersistMetadata(h Host, t int64, w *WriteCtx) int64
	// PersistOnPUBEvict decides whether an evicted partial update still
	// obliges a full write-back of its metadata block. Only called for
	// schemes with UsesPUB.
	PersistOnPUBEvict(e EvictCtx) bool
	// RecoveryCycles models the scheme's crash-recovery cost: pubBlocks
	// is the PUB ring occupancy at the crash (0 without a PUB),
	// ctrBlocks the number of written counter blocks in the image.
	RecoveryCycles(cfg config.Config, pubBlocks, ctrBlocks int64) int64
}

// For resolves the scheme implementation for a configuration. It
// returns a fresh instance (schemes may carry run state) and an error
// for unknown kinds; cfg is assumed validated.
func For(cfg config.Config) (PersistScheme, error) {
	s := cfg.Scheme
	switch s.Kind() {
	case config.KindBaselineStrict:
		return baselineStrict{}, nil
	case config.KindThothWTSC:
		return &thoth{s: s, afterWPQ: cfg.PCBAfterWPQ}, nil
	case config.KindThothWTBC:
		return &thoth{s: s, wtbc: true, afterWPQ: cfg.PCBAfterWPQ}, nil
	case config.KindAnubisECC:
		return anubisECC{}, nil
	case config.KindTriadRelaxed:
		return &triadRelaxed{epoch: s.TriadEpoch()}, nil
	default:
		return nil, fmt.Errorf("scheme: no implementation for %v", s)
	}
}

// UsesPUB reports whether a scheme value runs the PCB/PUB machinery,
// without building the implementation — the cheap query the harness and
// CLIs use for prefill/flag gating.
func UsesPUB(s config.Scheme) bool { return s.IsThoth() }

// PUBReplayCycles models the serial PUB-merge recovery cost (footnote 5
// of the paper): for each PUB block, one block read; for each entry,
// reads of the counter block, ciphertext and MAC block, two MAC
// computations, and writes of the counter and MAC blocks. This is the
// Thoth schemes' RecoveryCycles and the formula behind
// recovery.EstimateCycles.
func PUBReplayCycles(cfg config.Config, pubBlocks int64) int64 {
	read := cfg.ReadLatencyCycles()
	write := cfg.WriteLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	perEntry := 3*read + 2*hash + 2*write
	perBlock := read + int64(cfg.PartialsPerBlock())*perEntry
	return pubBlocks * perBlock
}

// TreeRebuildCycles models a full bottom-up integrity-tree rebuild from
// the persisted counter region: one read plus a per-level hash chain
// per written counter block. This is the recovery bill a relaxed
// tree-persistence scheme (Triad) pays instead of trusting lazily
// written-back nodes.
func TreeRebuildCycles(cfg config.Config, ctrBlocks int64) int64 {
	read := cfg.ReadLatencyCycles()
	hash := int64(cfg.HashLatencyCycles)
	return ctrBlocks * (read + int64(cfg.NVMTreeLevels)*hash)
}
