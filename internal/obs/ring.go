package obs

import "sync"

// Ring is a bounded in-memory tracer: it keeps the most recent capacity
// events (older ones are overwritten) and counts what it had to drop.
// Every controller runs one as its always-on flight recorder, a black
// box independent of the opt-in tracer that Crash/CrashShards snapshot
// and dump to JSONL alongside the crash image. Emit copies a flat Event
// into a preallocated buffer under a mutex, so recording allocates
// nothing and an idle ring costs nothing. Safe for concurrent use.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	head    int   // next write position
	n       int   // live events in buf
	dropped int64 // events overwritten
	count   int64
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit records the event, overwriting the oldest when full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
	r.count++
	r.mu.Unlock()
}

// Events returns the retained events in emission order (oldest first).
func (r *Ring) Events() []Event { return r.Snapshot().Events }

// Snapshot returns an immutable copy of the ring: the retained events
// in emission order plus the drop accounting, taken atomically so the
// record stays frozen while the ring keeps running.
func (r *Ring) Snapshot() FlightRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]Event, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		events = append(events, r.buf[(start+i)%len(r.buf)])
	}
	return FlightRecord{Events: events, Dropped: r.dropped, Count: r.count}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events were overwritten by newer ones.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Count returns the total number of events emitted (retained + dropped).
func (r *Ring) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
