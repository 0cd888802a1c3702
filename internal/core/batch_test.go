package core

import (
	"testing"

	"repro/internal/bmt"
	"repro/internal/config"
	"repro/internal/crypt"
)

// batchRNG is a tiny splitmix64 driver for deterministic address/payload
// sequences.
type batchRNG struct{ s uint64 }

func (r *batchRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// batchTrace derives n full-block requests over a small hot region, so
// batches collide on counter and MAC home blocks, pages see repeated
// writes, and the same data block recurs within one batch.
func batchTrace(c *Controller, seed uint64, n int) []WriteReq {
	r := &batchRNG{s: seed}
	bs := int64(c.cfg.BlockSize)
	hotBlocks := int64(48) // a handful of pages
	reqs := make([]WriteReq, n)
	for i := range reqs {
		blk := int64(r.next()) % hotBlocks
		if blk < 0 {
			blk = -blk
		}
		data := make([]byte, bs)
		for j := range data {
			data[j] = byte(r.next())
		}
		reqs[i] = WriteReq{Addr: blk * bs, Data: data}
	}
	return reqs
}

// assertSameState fails unless two controllers hold bit-identical
// device images, statistics, and tree roots.
func assertSameState(t *testing.T, serial, batched *Controller) {
	t.Helper()
	if !serial.Device().Equal(batched.Device()) {
		t.Fatal("device images diverge between serial and batched persists")
	}
	serial.SyncStats()
	batched.SyncStats()
	if *serial.Stats() != *batched.Stats() {
		t.Fatalf("stats diverge:\nserial:  %+v\nbatched: %+v", *serial.Stats(), *batched.Stats())
	}
	if serial.Root() != batched.Root() {
		t.Fatal("tree roots diverge")
	}
}

// TestPersistBatchMatchesSerial drives the same request stream through
// chained PersistBlock calls and through PersistBatch in chunks, for
// every scheme, and demands bit-identical device images, stats and
// modeled time — PersistBatch's contract.
func TestPersistBatchMatchesSerial(t *testing.T) {
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC, config.ThothWTBC, config.AnubisECC} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			serial := mustNew(t, cfg)
			batched := mustNew(t, cfg)

			reqs := batchTrace(serial, 0xC0FFEE, 600)
			var tSerial, tBatched int64
			for _, r := range reqs {
				tSerial = serial.PersistBlock(tSerial, r.Addr, r.Data)
			}
			for lo := 0; lo < len(reqs); {
				hi := lo + 1 + lo%13 // varying batch sizes, incl. size 1
				if hi > len(reqs) {
					hi = len(reqs)
				}
				tBatched = batched.PersistBatch(tBatched, reqs[lo:hi])
				lo = hi
			}
			if tSerial != tBatched {
				t.Fatalf("modeled time diverges: serial %d, batched %d", tSerial, tBatched)
			}
			assertSameState(t, serial, batched)
		})
	}
}

// TestPersistBatchOverflowSpeculation hammers one page past the minor-
// counter limit inside large batches, so overflows trigger mid-batch and
// the page re-encryption must land exactly where the serial run has it.
func TestPersistBatchOverflowSpeculation(t *testing.T) {
	cfg := testConfig(config.ThothWTSC)
	serial := mustNew(t, cfg)
	batched := mustNew(t, cfg)
	bs := int64(cfg.BlockSize)

	// 3 blocks of one page, round-robin: each sees > MinorMax writes.
	n := 3 * (int(crypt.MinorMax) + 40)
	reqs := make([]WriteReq, n)
	r := &batchRNG{s: 7}
	for i := range reqs {
		data := make([]byte, bs)
		for j := range data {
			data[j] = byte(r.next())
		}
		reqs[i] = WriteReq{Addr: int64(i%3) * bs, Data: data}
	}

	var tSerial, tBatched int64
	for _, q := range reqs {
		tSerial = serial.PersistBlock(tSerial, q.Addr, q.Data)
	}
	for lo := 0; lo < len(reqs); lo += 64 {
		hi := lo + 64
		if hi > len(reqs) {
			hi = len(reqs)
		}
		tBatched = batched.PersistBatch(tBatched, reqs[lo:hi])
	}
	if serial.Stats().CtrOverflows == 0 {
		t.Fatal("test expected at least one counter overflow")
	}
	if tSerial != tBatched {
		t.Fatalf("modeled time diverges: serial %d, batched %d", tSerial, tBatched)
	}
	assertSameState(t, serial, batched)
}

// TestPersistBatchStageCrash pins the batch's crash semantics: a batch
// commits its requests one at a time in order, so a crash after j
// committed requests yields exactly the serial image of j chained
// persists.
func TestPersistBatchStageCrash(t *testing.T) {
	for _, s := range []config.Scheme{config.ThothWTSC, config.ThothWTBC} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			mk := func() (*Controller, []WriteReq, int64) {
				c := mustNew(t, cfg)
				warm := batchTrace(c, 99, 120)
				var now int64
				for _, q := range warm {
					now = c.PersistBlock(now, q.Addr, q.Data)
				}
				return c, batchTrace(c, 123, 40), now
			}
			for _, j := range []int{1, 17, 39} {
				c1, reqs1, t1 := mk()
				for _, q := range reqs1[:j] {
					t1 = c1.PersistBlock(t1, q.Addr, q.Data)
				}
				if err := c1.Crash(t1); err != nil {
					t.Fatal(err)
				}
				c2, reqs2, t2 := mk()
				t2 = c2.PersistBatch(t2, reqs2[:j])
				if err := c2.Crash(t2); err != nil {
					t.Fatal(err)
				}
				if !c1.Device().Equal(c2.Device()) {
					t.Fatalf("mid-batch crash after %d requests diverges from serial", j)
				}
			}
		})
	}
}

// TestCrashVsEpochFlushImage pins the PR-3 lazy batched BMT flush
// against Crash: the dirty-node set is drained in one non-reentrant
// bottom-up pass (bmt.Tree.flush) with no yield points, so a crash can
// never observe a torn set — forcing intermediate epoch flushes (Root()
// observations) at arbitrary points must not change the crash image,
// and the persisted root must equal a from-scratch rebuild of the
// image's counters.
func TestCrashVsEpochFlushImage(t *testing.T) {
	for _, s := range []config.Scheme{config.BaselineStrict, config.ThothWTSC, config.ThothWTBC} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := testConfig(s)
			run := func(flushEvery int) *Controller {
				c := mustNew(t, cfg)
				reqs := batchTrace(c, 555, 300)
				var now int64
				for i, q := range reqs {
					now = c.PersistBlock(now, q.Addr, q.Data)
					if flushEvery > 0 && i%flushEvery == 0 {
						c.Root() // force the lazy dirty set to drain mid-run
					}
				}
				if err := c.Crash(now); err != nil {
					t.Fatal(err)
				}
				return c
			}
			lazy := run(0)
			eager := run(7)
			if !lazy.Device().Equal(eager.Device()) {
				t.Fatal("epoch-flush timing changed the crash image")
			}
			if s != config.BaselineStrict {
				return
			}
			// Under the strict scheme every counter block is persisted in
			// place, so the saved root must match a from-scratch rebuild of
			// the image — i.e. the crash-time flush drained the entire
			// dirty set, torn nowhere.
			dev := lazy.Device()
			root, err := LoadRoot(cfg.BlockSize, lazy.Layout().CtlBase, dev.Peek)
			if err != nil {
				t.Fatal(err)
			}
			if want := bmt.Rebuild(lazy.Layout(), lazy.Engine(), dev); root != want {
				t.Fatalf("persisted root %#x != rebuilt root %#x (torn flush?)", root, want)
			}
		})
	}
}
