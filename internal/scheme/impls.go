package scheme

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/pub"
)

// baselineStrict is the paper's baseline (Section V-A): every data
// persist strictly writes the full counter and MAC blocks through the
// WPQ, chained so the MAC write queues behind the counter write's
// completion. Lines end up clean, so natural evictions are free; tree
// nodes persist lazily on cache eviction.
type baselineStrict struct{}

func (baselineStrict) Scheme() config.Scheme { return config.BaselineStrict }

func (baselineStrict) Info() Info {
	return Info{
		Name:       config.BaselineStrict.String(),
		Guarantees: "counters and MACs persist in full with every data write; tree nodes write back lazily on cache eviction",
	}
}

func (baselineStrict) UsesPUB() bool                 { return false }
func (baselineStrict) PersistTreeOnCacheEvict() bool { return true }

func (baselineStrict) PersistMetadata(h Host, t int64, w *WriteCtx) int64 {
	tc := h.PersistCtrStrict(t, w)
	tm := h.PersistMACStrict(tc, w)
	if tc > tm {
		return tc
	}
	return tm
}

func (baselineStrict) PersistOnPUBEvict(EvictCtx) bool { return false }

func (baselineStrict) RecoveryCycles(config.Config, int64, int64) int64 { return 0 }

// thoth is the paper's contribution with either eviction policy: the
// metadata cache lines stay dirty (write-back) and a packed partial
// update enters the PCB/PUB, whose eviction policy — WTSC status checks
// or WTBC bitmask checks — decides when a full block write-back is
// still owed.
type thoth struct {
	s config.Scheme
	// wtbc selects the precise bitmask-check eviction policy; false is
	// the status-check policy the paper adopts.
	wtbc bool
	// afterWPQ selects the Section IV-C PCB-after-WPQ arrangement.
	afterWPQ bool
}

func (th *thoth) Scheme() config.Scheme { return th.s }

func (th *thoth) Info() Info {
	policy := "status checks (conservative: may re-persist captured blocks, never misses one)"
	if th.wtbc {
		policy = "bitmask checks (precise per-slot dirty tracking)"
	}
	arrangement := "PCB before WPQ (augmented)"
	if th.afterWPQ {
		arrangement = "PCB after WPQ (divert at issue)"
	}
	return Info{
		Name:       th.s.String(),
		Guarantees: "partial counter/MAC updates persist in the PCB/PUB; full blocks write back on eviction by " + policy,
		Tunables: []Tunable{
			{Name: "eviction-policy", Value: policy},
			{Name: "arrangement", Value: arrangement},
		},
	}
}

func (th *thoth) UsesPUB() bool                 { return true }
func (th *thoth) PersistTreeOnCacheEvict() bool { return true }

func (th *thoth) PersistMetadata(h Host, t int64, w *WriteCtx) int64 {
	w.CtrLine.Dirty = true
	w.MACLine.Dirty = true

	mac2 := h.MAC2(w.MAC1)
	t += h.HashLatency() // second-level MAC computation

	var status uint8
	if w.WasCtrDirty {
		status |= pub.StatusCtrWasDirty
	}
	if w.WasMACDirty {
		status |= pub.StatusMACWasDirty
	}
	e := pub.Entry{
		BlockIndex: w.BlockIndex,
		MAC2:       mac2,
		Minor:      w.Counter.Minor,
		Status:     status,
	}
	h.Stats().PartialUpdates++
	if th.afterWPQ {
		return h.PCBInsertAfter(t, w.Addr, e)
	}
	return h.PCBInsert(t, e)
}

func (th *thoth) PersistOnPUBEvict(e EvictCtx) bool {
	if th.wtbc {
		// WTBC persists iff the entry is the newest update to its slot.
		return e.Current
	}
	// WTSC persists iff this update transitioned the block clean→dirty
	// and the block is still cached dirty (Section IV-B).
	return !e.WasDirty && e.LinePresent && e.LineDirty
}

func (th *thoth) RecoveryCycles(cfg config.Config, pubBlocks, _ int64) int64 {
	return PUBReplayCycles(cfg, pubBlocks)
}

// anubisECC is the hypothetical comparator of Section V-F: ECC bits
// co-locate the counter with the data and the MAC is written on a
// parallel chip, so metadata persistence is functionally real but costs
// no extra block write and no WPQ slot.
type anubisECC struct{}

func (anubisECC) Scheme() config.Scheme { return config.AnubisECC }

func (anubisECC) Info() Info {
	return Info{
		Name:       config.AnubisECC.String(),
		Guarantees: "metadata co-locates with data (ECC bits / parallel chip); persistence is free and implicit",
	}
}

func (anubisECC) UsesPUB() bool                 { return false }
func (anubisECC) PersistTreeOnCacheEvict() bool { return true }

func (anubisECC) PersistMetadata(h Host, t int64, w *WriteCtx) int64 {
	h.CoLocateMetadata(w)
	// Co-location adds nothing to the critical path: the data write's
	// own completion gates durability.
	return t
}

func (anubisECC) PersistOnPUBEvict(EvictCtx) bool { return false }

func (anubisECC) RecoveryCycles(config.Config, int64, int64) int64 { return 0 }

// triadRelaxed is a Triad-NVM-style relaxed-persistence scheme (Awad et
// al., see PAPERS.md): counters and MACs persist strictly like the
// baseline — crash consistency of data is never weakened — but dirty
// Merkle-tree nodes are NOT written back on cache eviction. Instead the
// scheme checkpoints all dirty tree nodes once every epoch persisted
// blocks. Between checkpoints the persisted tree region is stale, which
// is sound because recovery never trusts it: the root is rebuilt
// bottom-up from the (strictly persisted) counter region and compared
// against the ADR-saved root. The trade is explicit: fewer tree writes
// during execution, a full tree rebuild at recovery.
type triadRelaxed struct {
	epoch int
	// since counts persisted blocks since the last checkpoint.
	since int
}

func (tr *triadRelaxed) Scheme() config.Scheme { return config.TriadRelaxed(tr.epoch) }

func (tr *triadRelaxed) Info() Info {
	return Info{
		Name:       config.TriadRelaxed(tr.epoch).String(),
		Guarantees: "counters and MACs persist strictly per write; tree nodes only checkpoint every epoch blocks (recovery rebuilds the tree)",
		Tunables: []Tunable{
			{Name: "checkpoint-epoch", Value: fmt.Sprintf("%d blocks", tr.epoch)},
		},
	}
}

func (tr *triadRelaxed) UsesPUB() bool                 { return false }
func (tr *triadRelaxed) PersistTreeOnCacheEvict() bool { return false }

func (tr *triadRelaxed) PersistMetadata(h Host, t int64, w *WriteCtx) int64 {
	tc := h.PersistCtrStrict(t, w)
	tm := h.PersistMACStrict(tc, w)
	tr.since++
	if tr.since >= tr.epoch {
		tr.since = 0
		h.FlushDirtyTreeNodes()
	}
	if tc > tm {
		return tc
	}
	return tm
}

func (tr *triadRelaxed) PersistOnPUBEvict(EvictCtx) bool { return false }

func (tr *triadRelaxed) RecoveryCycles(cfg config.Config, _, ctrBlocks int64) int64 {
	return TreeRebuildCycles(cfg, ctrBlocks)
}
