package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/crypt"
	"repro/internal/ctr"
	"repro/internal/macs"
	"repro/internal/obs"
	"repro/internal/pub"
	"repro/internal/sim"
	"repro/internal/stats"
)

// now tracks the controller-local notion of current time so that
// internal callbacks (cache evictions) can stamp channel work. It is
// updated at the entry of every public timed operation.
func (c *Controller) setNow(t int64) {
	if t > c.nowCycle {
		c.nowCycle = t
	}
}

// ReadBlock performs a secure demand read of one data block: fetch and
// verify the counter, read the ciphertext, decrypt, and verify the MAC.
// It returns the completion cycle and the plaintext.
//
// The returned plaintext is a borrow of controller-owned scratch: it is
// valid until the next controller operation. Callers that need the data
// past that point copy it out.
func (c *Controller) ReadBlock(t int64, addr int64) (int64, []byte) {
	c.checkAlive()
	c.setNow(t)
	cur := obs.NewCursor(c.span, t)

	ctrLine, tc := c.fetchCtr(t, addr)
	slot := c.lay.CtrSlot(addr)
	counter := ctr.Counter(ctrLine.Data, slot)

	// Ciphertext read overlaps OTP generation; the later of the two
	// gates the XOR. The view aliases device storage; the fetches below
	// only ever write other blocks (metadata regions), so it stays
	// valid through the decrypt.
	dataDone := c.mem.Read(t, addr, c.cfg.ReadLatencyCycles())
	c.st.NVMReads++
	ciphertext := c.dev.View(addr)

	macLine, tm := c.fetchMAC(t, addr)
	done := max64(max64(tc+c.aesLat(), dataDone), tm) + c.hashLat()
	// Attribution: everything up to the last fetch completion is fetch;
	// the remaining pad/hash tail to done is crypto. done never precedes
	// the fetch boundary, so the two charges sum to done − t exactly.
	cur.Charge(obs.SpanFetch, max64(max64(tc, dataDone), tm))
	cur.Charge(obs.SpanCrypto, done)

	size := c.cfg.MACSize()
	want := c.macBuf[:size]
	c.eng.MACInto(want, ciphertext, addr, counter)
	if !macs.Equal(macLine.Data, c.lay.MACSlot(addr), size, want) {
		panic(fmt.Sprintf("core: MAC verification failed reading %#x (integrity violation)", addr))
	}
	plain := c.readBuf
	copy(plain, ciphertext)
	c.eng.XorPad(plain, addr, counter)
	return done, plain
}

// ReadBlockAllowEmpty is ReadBlock for blocks that may never have been
// written: an unwritten block returns zeros without MAC verification
// (there is nothing to verify — the allocator would hand out zero-fill
// pages), while a written block takes the full verified read path. The
// same borrowed-scratch contract as ReadBlock applies.
func (c *Controller) ReadBlockAllowEmpty(t int64, addr int64) (int64, []byte) {
	c.checkAlive()
	if !c.dev.Written(addr) {
		clear(c.readBuf)
		return t, c.readBuf
	}
	return c.ReadBlock(t, addr)
}

// PersistBlock performs a secure persistent write of one data block (the
// clwb path): bump the split counter, encrypt, MAC, update the eager
// tree root, and persist per the configured scheme. It returns the cycle
// at which the write is durable (inside the ADR domain).
func (c *Controller) PersistBlock(t int64, addr int64, plain []byte) int64 {
	c.checkAlive()
	if len(plain) != c.cfg.BlockSize {
		panic(fmt.Sprintf("core: persist of %d bytes, block size is %d", len(plain), c.cfg.BlockSize))
	}
	c.setNow(t)
	cur := obs.NewCursor(c.span, t)

	// Counter and MAC block fetches proceed in parallel (the channel
	// serializes any misses).
	ctrLine, tc := c.fetchCtr(t, addr)
	macLine, tm := c.fetchMAC(t, addr)
	slot := c.lay.CtrSlot(addr)
	cur.Charge(obs.SpanFetch, max64(tc, tm))

	// Handle minor-counter overflow before bumping: the whole page is
	// re-encrypted under the new major and the counter block is
	// persisted immediately (Section IV-A).
	tOverflow := int64(0)
	if ctr.Minor(ctrLine.Data, slot) == crypt.MinorMax {
		tOverflow = c.reencryptPage(max64(tc, tm), addr, ctrLine)
		// Page re-encryption is crypto work on the critical path.
		cur.Charge(obs.SpanCrypto, tOverflow)
		// Page re-encryption touches every MAC block of the page and may
		// have displaced the line we hold; re-resolve it.
		macLine, tm = c.fetchMAC(tOverflow, addr)
		cur.Charge(obs.SpanFetch, tm)
	}

	// Dirty state is sampled *after* overflow handling (which persists
	// and cleans the lines): the WTSC status bits must reflect the state
	// this update transitions from, or the responsibility chain for
	// persisting the block on PUB eviction would have a hole.
	wasCtrDirty := ctrLine.Dirty
	wasMACDirty := macLine.Dirty

	counter, _ := ctr.Bump(ctrLine.Data, slot)

	// Eager logical tree update: the on-chip root always reflects the
	// newest counters (the Anubis-style persistent root both schemes
	// rely on for recovery verification).
	ctrIdx := c.lay.CtrIndex(c.lay.CtrBlockAddr(addr))
	c.tree.Update(ctrIdx, ctrLine.Data)
	c.markTreeDirty(ctrIdx)

	ciphertext := c.ctBuf
	mac1 := c.macBuf[:c.cfg.MACSize()]
	c.eng.EncryptInto(ciphertext, plain, addr, counter)
	c.eng.MACInto(mac1, ciphertext, addr, counter)
	macs.Set(macLine.Data, c.lay.MACSlot(addr), c.cfg.MACSize(), mac1)

	// Crypto critical path: OTP generation + first-level MAC + the
	// eager update of the small tree over the secure metadata cache
	// (Table I: 4-level, eager).
	tCrypto := max64(max64(tc, tm), tOverflow) + c.aesLat() + c.hashLat()
	cur.Charge(obs.SpanCrypto, tCrypto)
	tCrypto += int64(c.cfg.CacheTreeLevels) * c.hashLat()
	cur.Charge(obs.SpanTree, tCrypto)

	// WTBC fine-grain dirtiness tracking.
	ctrLine.Mask |= 1 << uint(slot)
	macLine.Mask |= 1 << uint(c.lay.MACSlot(addr))

	// Ciphertext becomes durable when it enters the WPQ.
	c.dev.WriteBlock(addr, ciphertext)
	res := c.q.Insert(tCrypto, addr)
	if !res.Coalesced {
		c.st.AddWrite(stats.WriteData)
	}
	done := res.When
	cur.Charge(obs.SpanWPQ, done)

	// Metadata persistence is the scheme's call: fill the reusable write
	// context and dispatch. A scheme that adds nothing to the critical
	// path (AnubisECC co-location) returns tCrypto, which never raises
	// done (the WPQ completes at or after the insert cycle).
	w := &c.wctx
	w.Addr = addr
	w.BlockIndex = uint32(addr / int64(c.cfg.BlockSize))
	w.CtrLine = ctrLine
	w.MACLine = macLine
	w.Counter = counter
	w.MAC1 = mac1
	w.WasCtrDirty = wasCtrDirty
	w.WasMACDirty = wasMACDirty
	done = max64(done, c.sch.PersistMetadata(c, tCrypto, w))
	cur.Charge(obs.SpanPersist, done)

	// Anubis shadow tracking: record both metadata updates so recovery
	// knows which blocks may have been lost with the caches.
	c.shadowUpdate(tCrypto, shadowCtr, ctrLine.Slot(), c.lay.CtrBlockAddr(addr))
	c.shadowUpdate(tCrypto, shadowMAC, macLine.Slot(), c.lay.MACBlockAddr(addr))

	if c.mWriteCycles != nil {
		c.mWriteCycles.Observe(done - t)
	}
	if c.mPUBOcc != nil {
		c.mPUBOcc.Set(c.ring.Len())
	}
	if c.mWPQOcc != nil {
		c.mWPQOcc.Set(int64(c.q.Occupancy()))
	}
	return done
}

// pcbInsert coalesces or appends one partial update into the PCB
// (the augmented PCB-before-WPQ path), making room and posting full
// blocks past the watermark as needed. Returns the completion cycle.
func (c *Controller) pcbInsert(t int64, e pub.Entry) int64 {
	if c.pcb.TryMerge(e) {
		return t
	}
	// Make room if every PCB slot is occupied: post a full block if one
	// exists, otherwise wait for an in-flight PUB write to retire.
	for c.pcb.Full() {
		if blk := c.pcb.PopPostable(); blk != nil {
			t = c.postPUBBlock(t, blk)
			continue
		}
		if c.mem.Pending() == 0 {
			panic("core: PCB full with no channel work outstanding")
		}
		t = max64(t, c.mem.ForceAny())
	}
	c.pcb.Append(e)
	// Keep posting off the critical path: hand full blocks to the
	// channel once the unposted population crosses the watermark.
	for c.pcb.OverWatermark() {
		blk := c.pcb.PopPostable()
		if blk == nil {
			break
		}
		t = c.postPUBBlock(t, blk)
	}
	return t
}

// postPUBBlock writes one packed block of partial updates into the PUB
// ring, evicting from the ring when it is past the occupancy threshold.
// The caller has already removed the block from the PCB's unposted set.
func (c *Controller) postPUBBlock(t int64, entries []pub.Entry) int64 {
	for c.ring.Len() >= c.evictBlocks || c.ring.Full() {
		c.evictPUBBlock(t)
	}
	pub.PackBlockInto(c.pubBuf, entries)
	pubAddr := c.ring.Push(c.pubBuf)
	c.pcb.Recycle(entries)
	c.emit(obs.KindPCBFlush, t, pubAddr, int64(len(entries)), "", "")
	c.pcb.AddPending()
	c.mem.Post(pubAddr, sim.Item{Ready: t, Dur: c.cfg.WriteLatencyCycles(), Done: c.onPUBRetire})
	c.st.AddWrite(stats.WritePCB)
	return t
}

// reencryptPage handles a minor-counter overflow: every previously
// written block of the page is decrypted under its old counter and
// re-encrypted under the incremented major, MAC blocks are refreshed,
// and the counter block is persisted immediately. Returns the cycle at
// which the page rewrite is accounted.
func (c *Controller) reencryptPage(t int64, addr int64, ctrLine *cache.Line) int64 {
	c.st.CtrOverflows++
	blocksPerPage := c.cfg.BlocksPerPage()
	pageBase := addr - (addr-c.lay.DataBase)%int64(c.cfg.PageBytes)
	c.emit(obs.KindCtrOverflow, t, pageBase, int64(blocksPerPage), "", "")

	oldMajor := ctr.Major(ctrLine.Data)
	oldMinors := c.reencMinors
	for s := 0; s < blocksPerPage; s++ {
		oldMinors[s] = ctr.Minor(ctrLine.Data, s)
	}
	newMajor := oldMajor + 1
	newCtr := crypt.Counter{Major: newMajor, Minor: 0}

	for s := 0; s < blocksPerPage; s++ {
		blk := pageBase + int64(s)*int64(c.cfg.BlockSize)
		if !c.dev.Written(blk) {
			continue
		}
		// Transcrypt in place in the overflow scratch buffer: CTR-mode
		// decryption is an XOR with the old pad, re-encryption an XOR
		// with the new one.
		fresh := c.reencBuf
		c.dev.PeekInto(fresh, blk)
		c.eng.XorPad(fresh, blk, crypt.Counter{Major: oldMajor, Minor: oldMinors[s]})
		c.eng.XorPad(fresh, blk, newCtr)
		c.dev.WriteBlock(blk, fresh)
		c.mem.Post(blk, sim.Item{Ready: t, Dur: c.cfg.WriteLatencyCycles()})
		c.st.AddWrite(stats.WriteOther)
		t += c.aesLat() // decrypt+encrypt pipelined per block

		// Refresh the block's MAC under the new counter.
		mac1 := c.reencMAC[:c.cfg.MACSize()]
		c.eng.MACInto(mac1, fresh, blk, newCtr)
		macLine, tm := c.fetchMAC(t, blk)
		t = max64(t, tm) + c.hashLat()
		macs.Set(macLine.Data, c.lay.MACSlot(blk), c.cfg.MACSize(), mac1)
		c.persistMACLine(c.lay.MACBlockAddr(blk), macLine.Data)
		macLine.Dirty = false
		macLine.Mask = 0
	}

	// Apply the reset to the cached counter block and persist it
	// immediately (both schemes).
	ctr.SetMajor(ctrLine.Data, newMajor)
	for s := 0; s < blocksPerPage; s++ {
		ctr.SetMinor(ctrLine.Data, s, 0)
	}
	c.persistCtrLine(c.lay.CtrBlockAddr(addr), ctrLine.Data)
	ctrLine.Dirty = false
	ctrLine.Mask = 0

	ctrIdx := c.lay.CtrIndex(c.lay.CtrBlockAddr(addr))
	c.tree.Update(ctrIdx, ctrLine.Data)
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
