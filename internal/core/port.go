package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Sentinel errors of the byte-range front end. The public thoth package
// and the sharded engine alias them, so errors.Is works uniformly
// across System, Pool and the load-generator targets.
var (
	// ErrCrashed reports an operation on a system that has crashed or
	// shut down.
	ErrCrashed = errors.New("thoth: system has crashed")
	// ErrOutOfRange reports an access outside the protected data region.
	ErrOutOfRange = errors.New("thoth: access outside data region")
)

// Port is the clocked byte-addressable interface of one Controller: the
// single front end through which System, every pool shard and the
// load-generator controller target reach the secure memory pipeline.
// It owns the modeled clock, translates data-region offsets to device
// addresses, and splits byte ranges into per-block operations —
// read-modify-write for partially covered blocks. Every op takes an
// arrival cycle: service starts at max(arrival, clock), so an idle port
// advances to the arrival and a backlogged one queues the op behind the
// work already accepted. Not safe for concurrent use (neither is the
// controller).
type Port struct {
	ctl  *Controller
	now  int64
	bs   int64
	base int64
	size int64
}

// NewPort wraps a controller with its clock at cycle 0.
func NewPort(ctl *Controller) *Port {
	return &Port{
		ctl:  ctl,
		bs:   int64(ctl.cfg.BlockSize),
		base: ctl.lay.DataBase,
		size: ctl.lay.DataBytes,
	}
}

// Controller returns the wrapped controller.
func (p *Port) Controller() *Controller { return p.ctl }

// Now returns the modeled clock: the completion cycle of the last op.
func (p *Port) Now() int64 { return p.now }

// BlockSize returns the access granularity in bytes.
func (p *Port) BlockSize() int { return int(p.bs) }

// DataSize returns the protected data region in bytes.
func (p *Port) DataSize() int64 { return p.size }

// Check validates an access of n bytes at data-region offset addr.
func (p *Port) Check(addr int64, n int) error {
	switch {
	case p.ctl.crashed:
		return fmt.Errorf("%w; recover the device and Open a new system", ErrCrashed)
	case addr < 0 || n < 0 || addr+int64(n) > p.size:
		return fmt.Errorf("%w: range [%d,+%d) outside data region of %d bytes",
			ErrOutOfRange, addr, n, p.size)
	}
	return nil
}

// begin validates an op, starts its service at max(arrival, clock) and,
// with a span, resets it, charges the front-end wait to SpanQueue and
// installs it on the controller. The caller uninstalls the span.
func (p *Port) begin(arrival, addr int64, n int, span *obs.Span) error {
	if arrival < 0 {
		return fmt.Errorf("core: negative arrival cycle %d", arrival)
	}
	if err := p.Check(addr, n); err != nil {
		return err
	}
	if arrival > p.now {
		p.now = arrival
	}
	if span != nil {
		span.Reset()
		span.Add(obs.SpanQueue, p.now-arrival)
		p.ctl.SetSpan(span)
	}
	return nil
}

// Write persists data at data-region offset addr, arriving at the given
// cycle, and returns its completion cycle. Each covered block is
// encrypted, MACed, bound into the integrity tree and made
// crash-consistent per the configured scheme; partially covered blocks
// are read, patched and rewritten. With a non-nil span the op's stage
// cycles are charged to it and sum exactly to completion − arrival; a
// nil span costs nothing.
func (p *Port) Write(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	if err := p.begin(arrival, addr, len(data), span); err != nil {
		return p.now, err
	}
	if span != nil {
		defer p.ctl.SetSpan(nil)
	}
	for off := int64(0); off < int64(len(data)); {
		blk := (addr + off) / p.bs * p.bs
		lo := (addr + off) - blk
		n := min(p.bs-lo, int64(len(data))-off)
		block := data[off : off+n]
		if n < p.bs {
			var cur []byte
			p.now, cur = p.ctl.ReadBlockAllowEmpty(p.now, p.base+blk)
			copy(cur[lo:lo+n], block)
			block = cur
		}
		p.now = p.ctl.PersistBlock(p.now, p.base+blk, block)
		off += n
	}
	return p.now, nil
}

// Read fills dst from data-region offset addr, arriving at the given
// cycle, decrypting and verifying every covered block, and returns its
// completion cycle. span works as for Write.
func (p *Port) Read(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	if err := p.begin(arrival, addr, len(dst), span); err != nil {
		return p.now, err
	}
	if span != nil {
		defer p.ctl.SetSpan(nil)
	}
	for off := int64(0); off < int64(len(dst)); {
		blk := (addr + off) / p.bs * p.bs
		lo := (addr + off) - blk
		n := min(p.bs-lo, int64(len(dst))-off)
		var block []byte
		p.now, block = p.ctl.ReadBlockAllowEmpty(p.now, p.base+blk)
		copy(dst[off:off+n], block[lo:lo+n])
		off += n
	}
	return p.now, nil
}

// PersistBatch persists device-addressed full-block writes in order,
// starting at the clock.
func (p *Port) PersistBatch(reqs []WriteReq) { p.now = p.ctl.PersistBatch(p.now, reqs) }

// Crash models a power failure at the clock; see Controller.Crash.
func (p *Port) Crash() error { return p.ctl.Crash(p.now) }

// Shutdown powers down cleanly at the clock, advancing it to when the
// channel goes idle; see Controller.Shutdown.
func (p *Port) Shutdown() (err error) {
	p.now, err = p.ctl.Shutdown(p.now)
	return err
}

// Stats snapshots the controller statistics with Cycles stamped to the
// clock.
func (p *Port) Stats() stats.Stats {
	p.ctl.SyncStats()
	snap := *p.ctl.st
	snap.Cycles = p.now
	return snap
}
