package core

import (
	"fmt"

	"repro/internal/obs"
)

// WriteReq is one full-block persist request of a batch: an absolute
// (layout) block-aligned data address and exactly one block of
// plaintext. The plaintext is only read, never retained, and each
// request encrypts its own payload — the same address may appear more
// than once in a batch.
type WriteReq struct {
	Addr int64
	Data []byte
}

// PersistBatch persists a batch of full-block writes in order, each
// through the same path as PersistBlock with chained completion times
// (exactly what System.Write does). The whole batch is validated before
// any request commits, and the batch is traced as one StageCommit span.
// Requests are durable in order; t is the start cycle of the first
// request and the returned cycle is when the last request is durable.
func (c *Controller) PersistBatch(t int64, reqs []WriteReq) int64 {
	c.checkAlive()
	for i := range reqs {
		if len(reqs[i].Data) != c.cfg.BlockSize {
			panic(fmt.Sprintf("core: batch request %d persists %d bytes, block size is %d",
				i, len(reqs[i].Data), c.cfg.BlockSize))
		}
	}
	if c.mBatchFill != nil {
		c.mBatchFill.Observe(int64(len(reqs)))
	}
	if len(reqs) == 0 {
		return t
	}

	n := int64(len(reqs))
	c.emit(obs.KindPersistStage, t, 0, n, obs.StageCommit, obs.PhaseBegin)
	done := t
	for i := range reqs {
		done = c.PersistBlock(done, reqs[i].Addr, reqs[i].Data)
	}
	c.emit(obs.KindPersistStage, done, 0, n, obs.StageCommit, obs.PhaseEnd)
	return done
}
