package crashfuzz

import (
	"bytes"
	"fmt"

	thoth "repro"
	"repro/internal/config"
)

// persistParams are the batching knobs of one serial-vs-batched run:
// Depth is the number of accumulated full-block requests that triggers a
// PersistBatch flush, and Split is how many leading blocks of the op at
// CrashIdx — the first op the serial prefix never executes — are
// committed before the crash when that op is a block-aligned write. A
// non-zero Split models a crash landing mid-batch: the final batch
// commits a prefix of a logical multi-block update, which the core
// stage-crash test proves is exactly "crash after j committed requests".
type persistParams struct {
	Depth int
	Split int
}

// persistParamsFor derives the knobs from the case, independent of the
// generator stream DeriveCase consumed, so the same case always pairs
// with the same batching schedule.
func persistParamsFor(c Case) persistParams {
	r := newRNG(c.Seed ^ 0x7065727369737431) // "persist1"
	p := persistParams{Depth: 2 + r.Intn(15)}
	if n := splitBlocksAvail(c); n > 0 {
		p.Split = r.Intn(n + 1)
	}
	return p
}

// splitBlocksAvail reports how many whole blocks of the crash op are
// available for a mid-batch split: non-zero only when the first
// unexecuted op is a block-aligned write.
func splitBlocksAvail(c Case) int {
	if c.CrashIdx >= len(c.Trace) {
		return 0
	}
	op := c.Trace[c.CrashIdx]
	bs := int64(c.BlockSize)
	if op.Kind != OpWrite || op.Addr%bs != 0 || op.Len%c.BlockSize != 0 {
		return 0
	}
	return op.Len / c.BlockSize
}

// PersistPipelineDiff executes the case's trace prefix under each scheme
// twice — serially through System.Write and batched through
// System.PersistBatch — and crashes both. The batched executor accumulates
// consecutive block-aligned writes into depth-limited batches and
// flushes before any read, partial write, corruption or the crash, so
// the two executions are the same logical request stream. Any
// divergence — different crash-image bytes, a different statistics
// snapshot, a different recovery outcome, different post-recovery
// device bytes, or different recovered plaintext for an acknowledged
// block — is a VPersistDiverge violation. Like RunCase, it never
// panics.
func PersistPipelineDiff(c Case) *Result {
	return persistDiffWith(c, persistParamsFor(c))
}

// RunPersistPipeline derives the case for a seed and runs the
// serial-vs-batched persist differential.
func RunPersistPipeline(seed int64) *Result {
	return PersistPipelineDiff(DeriveCase(seed))
}

// persistDiffWith is PersistPipelineDiff with the batching knobs pinned
// (the fuzz target drives them directly).
func persistDiffWith(c Case, p persistParams) *Result {
	if max := splitBlocksAvail(c); p.Split > max {
		p.Split = max
	}
	if p.Depth < 1 {
		p.Depth = 1
	}
	res := &Result{Case: c}
	golden := goldenAfter(c)
	for _, sch := range c.Schemes {
		img, snap, viols := serialPersistImage(c, sch, p.Split)
		res.Violations = append(res.Violations, viols...)
		if img == nil {
			continue
		}
		cfg := c.ConfigFor(sch)
		serialBytes, err := imageBytes(img)
		if err != nil {
			res.Violations = append(res.Violations,
				Violation{VExecError, sch, "serial image save: " + err.Error()})
			continue
		}
		serialDev := img.Clone()
		_, serialErr := thoth.Recover(cfg, serialDev)
		serialRecBytes, err := imageBytes(serialDev)
		if err != nil {
			res.Violations = append(res.Violations,
				Violation{VExecError, sch, "serial recovered-image save: " + err.Error()})
			continue
		}
		var serialBlocks map[int64][]byte
		if serialErr == nil {
			serialBlocks, err = recoveredBlocks(cfg, serialDev, golden)
			if err != nil {
				res.Violations = append(res.Violations,
					Violation{VReopenError, sch, "serial: " + err.Error()})
				continue
			}
		}

		diverge := func(detail string) {
			res.Violations = append(res.Violations, Violation{
				VPersistDiverge, sch,
				fmt.Sprintf("depth=%d split=%d: %s", p.Depth, p.Split, detail),
			})
		}
		bImg, bSnap, bviols := batchedPersistImage(c, sch, p)
		if bImg == nil {
			for _, v := range bviols {
				diverge("batched execution failed: " + v.Detail)
			}
			continue
		}
		if bSnap != snap {
			diverge(fmt.Sprintf("stats snapshot differs:\nserial:  %+v\nbatched: %+v", snap, bSnap))
		}
		bBytes, err := imageBytes(bImg)
		if err != nil {
			diverge("image save: " + err.Error())
			continue
		}
		if !bytes.Equal(serialBytes, bBytes) {
			diverge("crash image differs from serial")
			continue
		}
		bDev := bImg.Clone()
		_, bErr := thoth.Recover(cfg, bDev)
		if !sameRecoveryOutcome(serialErr, bErr) {
			diverge(fmt.Sprintf("recovery outcome differs: serial err=%v, batched err=%v", serialErr, bErr))
			continue
		}
		bRecBytes, err := imageBytes(bDev)
		if err != nil {
			diverge("recovered-image save: " + err.Error())
			continue
		}
		if !bytes.Equal(serialRecBytes, bRecBytes) {
			diverge("post-recovery device image differs from serial")
			continue
		}
		if serialBlocks == nil {
			continue
		}
		bBlocks, err := recoveredBlocks(cfg, bDev, golden)
		if err != nil {
			diverge("reopen: " + err.Error())
			continue
		}
		for _, addr := range sortedAddrs(golden) {
			if !bytes.Equal(serialBlocks[addr], bBlocks[addr]) {
				diverge(fmt.Sprintf("block %#x recovered differently", addr))
			}
		}
	}
	return res
}

// serialPersistImage executes the case's trace prefix — plus the first
// split blocks of the crash op — through System.Write, and crashes. It
// returns the crash image and the pre-crash statistics snapshot (image
// nil when execution failed; the violations say why).
func serialPersistImage(c Case, sch config.Scheme, split int) (img *thoth.Device, snap thoth.StatsSnapshot, viols []Violation) {
	defer func() {
		if p := recover(); p != nil {
			img = nil
			viols = append(viols, Violation{VExecPanic, sch, fmt.Sprint(p)})
		}
	}()
	cfg := c.ConfigFor(sch)
	sys, err := thoth.New(cfg)
	if err != nil {
		return nil, snap, append(viols, Violation{VExecError, sch, "new: " + err.Error()})
	}
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			err = sys.Write(op.Addr, op.payload())
		case OpRead:
			_, err = sys.Read(op.Addr, op.Len)
		case OpCorrupt:
			corruptCtr(sys, cfg, op.Addr)
		}
		if err != nil {
			return nil, snap, append(viols, Violation{VExecError, sch,
				fmt.Sprintf("op %d (%s %#x+%d): %v", i, op.Kind, op.Addr, op.Len, err)})
		}
	}
	if split > 0 {
		op := c.Trace[c.CrashIdx]
		if err := sys.Write(op.Addr, op.payload()[:split*c.BlockSize]); err != nil {
			return nil, snap, append(viols, Violation{VExecError, sch,
				fmt.Sprintf("split write (%d blocks of op %d): %v", split, c.CrashIdx, err)})
		}
	}
	snap = sys.Stats()
	img, err = sys.Crash()
	if err != nil {
		return nil, snap, append(viols, Violation{VCrashError, sch, err.Error()})
	}
	return img, snap, viols
}

// batchedPersistImage is serialPersistImage through PersistBatch:
// consecutive block-aligned writes accumulate into batches of at most
// p.Depth requests handed to System.PersistBatch, flushed before any
// read, partial write, corruption or the crash. The split blocks of the
// crash op join the final batch, so the crash lands after a committed
// prefix of it.
func batchedPersistImage(c Case, sch config.Scheme, p persistParams) (img *thoth.Device, snap thoth.StatsSnapshot, viols []Violation) {
	defer func() {
		if pan := recover(); pan != nil {
			img = nil
			viols = append(viols, Violation{VExecPanic, sch, fmt.Sprint(pan)})
		}
	}()
	cfg := c.ConfigFor(sch)
	sys, err := thoth.New(cfg)
	if err != nil {
		return nil, snap, append(viols, Violation{VExecError, sch, "new: " + err.Error()})
	}
	bs := int64(c.BlockSize)
	var pending []thoth.WriteReq
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := sys.PersistBatch(pending)
		pending = pending[:0]
		return err
	}
	enqueue := func(op Op, nblocks int) error {
		data := op.payload()
		for b := 0; b < nblocks; b++ {
			pending = append(pending, thoth.WriteReq{
				Addr: op.Addr + int64(b)*bs,
				Data: data[int64(b)*bs : int64(b+1)*bs],
			})
			if len(pending) >= p.Depth {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i, op := range c.Trace[:c.CrashIdx] {
		switch op.Kind {
		case OpWrite:
			if op.Addr%bs == 0 && op.Len%c.BlockSize == 0 {
				err = enqueue(op, op.Len/c.BlockSize)
			} else if err = flush(); err == nil {
				err = sys.Write(op.Addr, op.payload())
			}
		case OpRead:
			if err = flush(); err == nil {
				_, err = sys.Read(op.Addr, op.Len)
			}
		case OpCorrupt:
			if err = flush(); err == nil {
				corruptCtr(sys, cfg, op.Addr)
			}
		}
		if err != nil {
			return nil, snap, append(viols, Violation{VExecError, sch,
				fmt.Sprintf("op %d (%s %#x+%d): %v", i, op.Kind, op.Addr, op.Len, err)})
		}
	}
	if p.Split > 0 {
		if err := enqueue(c.Trace[c.CrashIdx], p.Split); err != nil {
			return nil, snap, append(viols, Violation{VExecError, sch,
				fmt.Sprintf("split enqueue (%d blocks of op %d): %v", p.Split, c.CrashIdx, err)})
		}
	}
	if err := flush(); err != nil {
		return nil, snap, append(viols, Violation{VExecError, sch, "final flush: " + err.Error()})
	}
	snap = sys.Stats()
	img, err = sys.Crash()
	if err != nil {
		return nil, snap, append(viols, Violation{VCrashError, sch, err.Error()})
	}
	return img, snap, viols
}

// recoveredBlocks reopens a recovered image and reads back every golden
// block, converting MAC-verification panics into per-block error
// markers so both executors' readbacks stay comparable.
func recoveredBlocks(cfg config.Config, dev *thoth.Device, golden map[int64][]byte) (map[int64][]byte, error) {
	sys, err := thoth.Open(cfg, dev.Clone())
	if err != nil {
		return nil, err
	}
	blocks := make(map[int64][]byte, len(golden))
	for _, addr := range sortedAddrs(golden) {
		b, err := readBlock(sys, addr, len(golden[addr]))
		if err != nil {
			b = []byte("unreadable: " + err.Error())
		}
		blocks[addr] = b
	}
	return blocks, nil
}
