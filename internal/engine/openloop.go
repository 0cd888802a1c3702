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
	"errors"
	"fmt"

	"repro/internal/core"
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
	return p.arrive(true, arrival, addr, data, span)
}

// ReadArrive fills dst from the given pool offset, modeling the op as
// arriving at the given cycle; see WriteArrive for the completion and
// span semantics.
func (p *Pool) ReadArrive(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return p.arrive(false, arrival, addr, dst, span)
}

// arrive splits one timed op at group boundaries and runs the segments
// in address order, each on its shard, then settles the completion cycle
// and span. Every segment charges the caller's span (the port resets it
// first); the critical segment's decomposition — the latest completion,
// the first one on a tie — is kept on the stack and left in the span.
func (p *Pool) arrive(write bool, arrival, addr int64, buf []byte, span *obs.Span) (int64, error) {
	if arrival < 0 {
		return 0, fmt.Errorf("engine: negative arrival cycle %d", arrival)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.checkRange(addr, len(buf)); err != nil {
		return 0, err
	}
	var (
		done int64
		crit obs.Span
		errs []error
	)
	for off, n := int64(0), int64(len(buf)); off < n; {
		cur := addr + off
		take := min(p.groupBytes-cur%p.groupBytes, n-off)
		sh, local := p.locate(cur)
		d, err := p.shards[sh].access(write, arrival, local, buf[off:off+take], span)
		if err != nil {
			errs = append(errs, err)
		}
		if off == 0 || d > done {
			done = d
			if span != nil {
				crit = *span
			}
		}
		off += take
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if span != nil && len(buf) > 0 {
		*span = crit
	}
	return done, nil
}

// access runs one timed segment on the shard: a write of buf, or a read
// into it, at local data-region offset addr.
func (s *shard) access(write bool, arrival, addr int64, buf []byte, span *obs.Span) (done int64, err error) {
	err = s.do(func(port *core.Port) error {
		var err error
		if !write {
			done, err = port.Read(arrival, addr, buf, span)
			return err
		}
		done, err = port.Write(arrival, addr, buf, span)
		if s.mBlocks != nil {
			bs := int64(port.BlockSize())
			s.mBlocks.Add((addr+int64(len(buf))+bs-1)/bs - addr/bs)
		}
		return err
	})
	return done, err
}
