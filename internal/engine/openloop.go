package engine

// The open-loop request path: WriteArrive and ReadArrive are Write and
// Read with a modeled arrival cycle and an optional span attached. A
// shard whose clock is behind an op's arrival was idle when the op
// arrived, so its clock jumps forward to the arrival before servicing; a
// shard whose clock is ahead is backlogged, and the op queues behind the
// work in front of it.
// The returned completion cycle therefore embeds the open-loop latency
// (completion − arrival = queueing delay + service), which is what
// internal/loadgen feeds into the metrics histograms. Requests spanning
// multiple metadata groups complete when their last segment does.

import (
	"fmt"

	"repro/internal/obs"
)

// WriteArrive persists data at the given pool offset, modeling the op as
// arriving at the given cycle. It returns the op's completion cycle: the
// latest completion across its shard segments, each serviced no earlier
// than the arrival and no earlier than the shard's prior backlog.
//
// When span is non-nil it receives the stage decomposition of the op's
// critical segment — the one whose completion defines the op's — so the
// stage cycles sum exactly to completion − arrival. A nil span costs
// nothing (no charging, no allocation).
func (p *Pool) WriteArrive(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	return p.arrive(opWrite, arrival, addr, data, span)
}

// ReadArrive fills dst from the given pool offset, modeling the op as
// arriving at the given cycle; see WriteArrive for the completion and
// span semantics.
func (p *Pool) ReadArrive(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return p.arrive(opRead, arrival, addr, dst, span)
}

// arrive splits one timed op at group boundaries, mails the segments to
// their shards, and settles the completion cycle and span.
func (p *Pool) arrive(kind opKind, arrival, addr int64, buf []byte, span *obs.Span) (int64, error) {
	if arrival < 0 {
		return 0, fmt.Errorf("engine: negative arrival cycle %d", arrival)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkRange(addr, len(buf)); err != nil {
		return 0, err
	}
	var rs []*req
	p.segment(addr, len(buf), func(sh int, local, off, length int64) {
		rs = append(rs, &req{kind: kind, shard: sh, arrival: arrival,
			addr: local, data: buf[off : off+length]})
	})
	attachSpans(rs, span)
	if err := p.dispatch(rs); err != nil {
		return 0, err
	}
	return settleSpans(rs, span), nil
}

// attachSpans wires the caller's span into a dispatched request set. A
// single-segment op charges the caller's span directly (no allocation —
// the common case for block-granular load; the shard's port resets it);
// a multi-segment op gives each segment a private span so the critical
// segment's decomposition can be selected afterwards.
func attachSpans(rs []*req, span *obs.Span) {
	if span == nil {
		return
	}
	if len(rs) == 1 {
		rs[0].span = span
		return
	}
	for _, r := range rs {
		r.span = new(obs.Span)
	}
}

// settleSpans returns the op's completion cycle and, for multi-segment
// ops with attribution, copies the critical (latest-finishing) segment's
// stage decomposition into the caller's span. The WaitGroup in dispatch
// ordered every shard's writes before this read.
func settleSpans(rs []*req, span *obs.Span) int64 {
	done := maxDone(rs)
	if span == nil || len(rs) == 1 {
		return done
	}
	for _, r := range rs {
		if r.done == done {
			*span = *r.span
			break
		}
	}
	return done
}

// maxDone returns the latest segment completion of a dispatched set.
func maxDone(rs []*req) int64 {
	var done int64
	for _, r := range rs {
		if r.done > done {
			done = r.done
		}
	}
	return done
}
