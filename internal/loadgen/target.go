package loadgen

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Target is the system a Driver generates traffic against. WriteSpan
// and ReadSpan carry the op's modeled arrival cycle and return its
// completion cycle: the service starts no earlier than the arrival (an
// idle target advances its clock to it) and no earlier than the end of
// the work queued ahead of it, so completion − arrival is the open-loop
// latency — queueing delay plus service — that the driver feeds into
// the metrics histograms. A non-nil span is reset and charged with
// every stage of the op's critical path, so the stage cycles sum
// exactly to completion − arrival (the conservation property the
// attribution tests pin); a nil span costs nothing.
type Target interface {
	BlockSize() int
	DataSize() int64
	WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error)
	ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error)
}

// ControllerTarget adapts one core.Controller through its byte-range
// port — the same front end a plain thoth.System uses, so with every
// arrival at cycle 0 the two are byte- and cycle-identical, the property
// the closed-loop differential test pins. Not safe for concurrent use
// (neither is the controller).
type ControllerTarget struct {
	port *core.Port
}

// NewControllerTarget wraps a controller.
func NewControllerTarget(ctl *core.Controller) *ControllerTarget {
	return &ControllerTarget{port: core.NewPort(ctl)}
}

// BlockSize returns the access granularity in bytes.
func (t *ControllerTarget) BlockSize() int { return t.port.BlockSize() }

// DataSize returns the protected data region in bytes.
func (t *ControllerTarget) DataSize() int64 { return t.port.DataSize() }

// Now returns the modeled clock (the completion cycle of the last op).
func (t *ControllerTarget) Now() int64 { return t.port.Now() }

// Controller exposes the wrapped controller for stats and crash hooks.
func (t *ControllerTarget) Controller() *core.Controller { return t.port.Controller() }

// Stats snapshots the controller statistics, Cycles stamped to the
// target clock (the same protocol as System.Stats).
func (t *ControllerTarget) Stats() stats.Stats { return t.port.Stats() }

// WriteSpan persists data arriving at the given cycle: the front-end
// wait (arrival → service start) is charged to SpanQueue and the
// controller charges the service stages.
func (t *ControllerTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	return t.port.Write(arrival, addr, data, span)
}

// ReadSpan fills dst from the given offset; see WriteSpan.
func (t *ControllerTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return t.port.Read(arrival, addr, dst, span)
}

// PoolTarget adapts a sharded engine.Pool through its arrival-aware op
// path. Shard clocks advance independently, so an op's completion
// reflects queueing behind its own shard only — the modeled concurrency
// of a multi-controller pool.
type PoolTarget struct {
	pool *engine.Pool
}

// NewPoolTarget wraps a pool.
func NewPoolTarget(p *engine.Pool) *PoolTarget { return &PoolTarget{pool: p} }

// Pool exposes the wrapped pool for stats and crash hooks.
func (t *PoolTarget) Pool() *engine.Pool { return t.pool }

// BlockSize returns the access granularity in bytes.
func (t *PoolTarget) BlockSize() int { return t.pool.BlockSize() }

// DataSize returns the pooled protected data region in bytes.
func (t *PoolTarget) DataSize() int64 { return t.pool.DataSize() }

// WriteSpan persists data arriving at the given cycle: the shard
// mailbox wait of the op's critical segment lands in SpanQueue and the
// owning controller charges the service stages; see engine's
// WriteArrive for the multi-segment semantics.
func (t *PoolTarget) WriteSpan(arrival, addr int64, data []byte, span *obs.Span) (int64, error) {
	return t.pool.WriteArrive(arrival, addr, data, span)
}

// ReadSpan fills dst from the given offset; see WriteSpan.
func (t *PoolTarget) ReadSpan(arrival, addr int64, dst []byte, span *obs.Span) (int64, error) {
	return t.pool.ReadArrive(arrival, addr, dst, span)
}
