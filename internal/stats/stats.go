// Package stats collects the counters the paper's evaluation reports:
// NVM write traffic broken down by category (Figure 9), ciphertext write
// share (Table II), PCB merge rates (Table III), PUB eviction outcome
// breakdown (Figure 3), and execution cycles (speedup figures).
package stats

import (
	"fmt"
	"strings"
)

// WriteCategory classifies every write that reaches the NVM channel.
type WriteCategory int

const (
	// WriteData is a regular (ciphertext) data-block write.
	WriteData WriteCategory = iota
	// WriteCounter is a full counter-block write (strict persist in the
	// baseline, natural eviction or PUB-triggered persist under Thoth).
	WriteCounter
	// WriteMAC is a full MAC-block write.
	WriteMAC
	// WritePCB is a packed partial-updates block written from the PCB
	// into the PUB region (Thoth only).
	WritePCB
	// WriteTree is a Merkle-tree node write-back (lazy eviction).
	WriteTree
	// WriteShadow is an Anubis shadow-table update (only with
	// ShadowTracking enabled).
	WriteShadow
	// WriteOther covers rare cases (counter-overflow page re-encryption,
	// recovery merges).
	WriteOther
	numWriteCategories
)

// String returns the report label for the category.
func (c WriteCategory) String() string {
	switch c {
	case WriteData:
		return "data"
	case WriteCounter:
		return "counter"
	case WriteMAC:
		return "mac"
	case WritePCB:
		return "pcb"
	case WriteTree:
		return "tree"
	case WriteShadow:
		return "shadow"
	case WriteOther:
		return "other"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// EvictOutcome classifies what happens when a partial update is evicted
// from the PUB (Figure 3's four scenarios).
type EvictOutcome int

const (
	// EvictWrittenBack: the metadata block was still dirty in the
	// metadata cache and the entry was live, so a full-block persist was
	// required.
	EvictWrittenBack EvictOutcome = iota
	// EvictAlreadyEvicted: the metadata block had already been evicted
	// from the metadata cache and written back; the entry is discarded.
	EvictAlreadyEvicted
	// EvictCleanCopy: the metadata block is cached but clean (persisted
	// earlier); the entry is discarded.
	EvictCleanCopy
	// EvictStaleCopy: a younger partial update to the same metadata slot
	// exists; the entry is stale and discarded.
	EvictStaleCopy
	numEvictOutcomes
)

// String returns the Figure 3 label for the outcome.
func (o EvictOutcome) String() string {
	switch o {
	case EvictWrittenBack:
		return "written-back"
	case EvictAlreadyEvicted:
		return "already-evicted"
	case EvictCleanCopy:
		return "clean-copy"
	case EvictStaleCopy:
		return "stale-copy"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Stats aggregates all counters for one simulation run. It is not safe
// for concurrent use; the simulator is single-threaded by design.
type Stats struct {
	// Cycles is the total execution time of the run in core cycles.
	Cycles int64

	// Transactions is the number of persistent transactions committed.
	Transactions int64

	writes [numWriteCategories]int64
	evicts [numEvictOutcomes]int64

	// NVMReads counts block reads that reached the NVM channel.
	NVMReads int64

	// LLCHits / LLCMisses count CPU-side read filtering.
	LLCHits   int64
	LLCMisses int64

	// CtrHits/CtrMisses, MACHits/MACMisses, MTHits/MTMisses count
	// metadata cache behaviour in the memory controller.
	CtrHits, CtrMisses int64
	MACHits, MACMisses int64
	MTHits, MTMisses   int64

	// PartialUpdates counts partial security-metadata updates produced
	// by persistent data writes (one counter partial + one MAC partial
	// per data-block persist is counted as two).
	PartialUpdates int64

	// PCBMerged counts partial updates that merged into an existing PCB
	// slot instead of consuming a new one (Table III numerator).
	PCBMerged int64

	// PCBInserted counts partial updates that consumed a new PCB slot.
	PCBInserted int64

	// WPQCoalesced counts writes that merged into an existing WPQ entry
	// for the same block address.
	WPQCoalesced int64

	// WPQStallCycles accumulates cycles the front-end spent blocked on a
	// full WPQ (the persistence back-pressure that drives the speedup
	// results).
	WPQStallCycles int64

	// WPQIssuedByAge/Watermark/Stall break down why WPQ entries left the
	// coalescing window.
	WPQIssuedByAge, WPQIssuedByWatermark, WPQIssuedByStall int64

	// PUBEvictions counts packed PUB blocks processed by the eviction
	// engine; PUBEntryEvictions counts individual partial entries.
	PUBEvictions      int64
	PUBEntryEvictions int64

	// CtrOverflows counts minor-counter overflows (page re-encryption).
	CtrOverflows int64
}

// Sub returns the counter-wise difference s - prev: the activity that
// happened between the two snapshots. Stats is fully value-copyable
// (the per-category tallies are fixed-size arrays), which is what makes
// interval measurement a plain subtraction.
//
// Sub is exact arithmetic, not a rate estimator: it never clamps, so a
// field of the result is negative whenever the corresponding counter in
// prev exceeds the one in s. That happens when the two snapshots do not
// come from the same monotonic counter history — most commonly when
// prev was taken from a system that has since crashed and s from the
// system opened after recovery, whose controller counters restart at
// zero. Negative fields are therefore a deliberate signal that the
// snapshots straddle a reset boundary rather than measuring an
// interval; callers that measure across a crash/recovery boundary must
// take a fresh baseline from the new system instead of reusing one from
// the previous incarnation.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Cycles -= prev.Cycles
	d.Transactions -= prev.Transactions
	for i := range d.writes {
		d.writes[i] -= prev.writes[i]
	}
	for i := range d.evicts {
		d.evicts[i] -= prev.evicts[i]
	}
	d.NVMReads -= prev.NVMReads
	d.LLCHits -= prev.LLCHits
	d.LLCMisses -= prev.LLCMisses
	d.CtrHits -= prev.CtrHits
	d.CtrMisses -= prev.CtrMisses
	d.MACHits -= prev.MACHits
	d.MACMisses -= prev.MACMisses
	d.MTHits -= prev.MTHits
	d.MTMisses -= prev.MTMisses
	d.PartialUpdates -= prev.PartialUpdates
	d.PCBMerged -= prev.PCBMerged
	d.PCBInserted -= prev.PCBInserted
	d.WPQCoalesced -= prev.WPQCoalesced
	d.WPQStallCycles -= prev.WPQStallCycles
	d.WPQIssuedByAge -= prev.WPQIssuedByAge
	d.WPQIssuedByWatermark -= prev.WPQIssuedByWatermark
	d.WPQIssuedByStall -= prev.WPQIssuedByStall
	d.PUBEvictions -= prev.PUBEvictions
	d.PUBEntryEvictions -= prev.PUBEntryEvictions
	d.CtrOverflows -= prev.CtrOverflows
	return d
}

// Add returns the counter-wise sum s + other. The sharded pool engine
// uses it to merge per-shard controller snapshots into one pooled view:
// every field is a plain event count, so summing across shards is exact.
// Cycles is summed here too — for a pool that is aggregate controller
// busy-cycles, not wall-clock; pool callers overwrite Cycles with the
// shard maximum (the makespan) after merging.
func (s Stats) Add(other Stats) Stats {
	d := s
	d.Cycles += other.Cycles
	d.Transactions += other.Transactions
	for i := range d.writes {
		d.writes[i] += other.writes[i]
	}
	for i := range d.evicts {
		d.evicts[i] += other.evicts[i]
	}
	d.NVMReads += other.NVMReads
	d.LLCHits += other.LLCHits
	d.LLCMisses += other.LLCMisses
	d.CtrHits += other.CtrHits
	d.CtrMisses += other.CtrMisses
	d.MACHits += other.MACHits
	d.MACMisses += other.MACMisses
	d.MTHits += other.MTHits
	d.MTMisses += other.MTMisses
	d.PartialUpdates += other.PartialUpdates
	d.PCBMerged += other.PCBMerged
	d.PCBInserted += other.PCBInserted
	d.WPQCoalesced += other.WPQCoalesced
	d.WPQStallCycles += other.WPQStallCycles
	d.WPQIssuedByAge += other.WPQIssuedByAge
	d.WPQIssuedByWatermark += other.WPQIssuedByWatermark
	d.WPQIssuedByStall += other.WPQIssuedByStall
	d.PUBEvictions += other.PUBEvictions
	d.PUBEntryEvictions += other.PUBEntryEvictions
	d.CtrOverflows += other.CtrOverflows
	return d
}

// AddWrite records one block write of the given category.
func (s *Stats) AddWrite(c WriteCategory) { s.writes[c]++ }

// Writes returns the count for one category.
func (s *Stats) Writes(c WriteCategory) int64 { return s.writes[c] }

// TotalWrites returns block writes across all categories.
func (s *Stats) TotalWrites() int64 {
	var t int64
	for _, w := range s.writes {
		t += w
	}
	return t
}

// WriteShare returns the fraction of total writes in the given category,
// or 0 if nothing was written.
func (s *Stats) WriteShare(c WriteCategory) float64 {
	t := s.TotalWrites()
	if t == 0 {
		return 0
	}
	return float64(s.writes[c]) / float64(t)
}

// AddEvict records one PUB entry eviction outcome.
func (s *Stats) AddEvict(o EvictOutcome) { s.evicts[o]++ }

// Evicts returns the count of one eviction outcome.
func (s *Stats) Evicts(o EvictOutcome) int64 { return s.evicts[o] }

// TotalEvicts returns all classified PUB entry evictions.
func (s *Stats) TotalEvicts() int64 {
	var t int64
	for _, e := range s.evicts {
		t += e
	}
	return t
}

// EvictShare returns the fraction of entry evictions with the given
// outcome, or 0 if none occurred.
func (s *Stats) EvictShare(o EvictOutcome) float64 {
	t := s.TotalEvicts()
	if t == 0 {
		return 0
	}
	return float64(s.evicts[o]) / float64(t)
}

// PCBMergeRate returns the fraction of partial updates that merged in the
// PCB (Table III), or 0 when no partials were produced.
func (s *Stats) PCBMergeRate() float64 {
	n := s.PCBMerged + s.PCBInserted
	if n == 0 {
		return 0
	}
	return float64(s.PCBMerged) / float64(n)
}

// CtrHitRate returns the counter-cache hit rate, or 0 with no accesses.
func (s *Stats) CtrHitRate() float64 { return rate(s.CtrHits, s.CtrMisses) }

// MACHitRate returns the MAC-cache hit rate, or 0 with no accesses.
func (s *Stats) MACHitRate() float64 { return rate(s.MACHits, s.MACMisses) }

// MTHitRate returns the tree-cache hit rate, or 0 with no accesses.
func (s *Stats) MTHitRate() float64 { return rate(s.MTHits, s.MTMisses) }

// LLCHitRate returns the LLC hit rate, or 0 with no accesses.
func (s *Stats) LLCHitRate() float64 { return rate(s.LLCHits, s.LLCMisses) }

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// String renders a compact multi-line report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d txs=%d reads=%d writes=%d stall=%d\n",
		s.Cycles, s.Transactions, s.NVMReads, s.TotalWrites(), s.WPQStallCycles)
	fmt.Fprintf(&b, "writes:")
	for c := WriteCategory(0); c < numWriteCategories; c++ {
		if s.writes[c] > 0 {
			fmt.Fprintf(&b, " %s=%d(%.1f%%)", c, s.writes[c], 100*s.WriteShare(c))
		}
	}
	b.WriteByte('\n')
	if s.TotalEvicts() > 0 {
		fmt.Fprintf(&b, "pub-evicts:")
		for o := EvictOutcome(0); o < numEvictOutcomes; o++ {
			fmt.Fprintf(&b, " %s=%.1f%%", o, 100*s.EvictShare(o))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "caches: ctr=%.1f%% mac=%.1f%% mt=%.1f%% llc=%.1f%% pcb-merge=%.1f%%",
		100*s.CtrHitRate(), 100*s.MACHitRate(), 100*s.MTHitRate(),
		100*s.LLCHitRate(), 100*s.PCBMergeRate())
	return b.String()
}
