package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestPoolArriveZeroAlloc pins the pool's timed path at 0 allocs/op once
// the touched blocks are warm: single-block writes and reads with and
// without a span, and a span-attributed op split across two shards.
// `make bench-alloc` runs it.
func TestPoolArriveZeroAlloc(t *testing.T) {
	p, err := New(testConfig(64, 1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	bs := int64(p.BlockSize())
	block := make([]byte, bs)
	// Half a block on each side of the first group boundary: two
	// segments on two shards.
	straddle := p.GroupBytes() - bs/2
	split := make([]byte, bs)
	if p.ShardOf(straddle) == p.ShardOf(straddle+bs-1) {
		t.Fatal("straddling op does not span two shards")
	}
	span := new(obs.Span)
	var now int64
	ops := []struct {
		name string
		op   func() (int64, error)
	}{
		{"write", func() (int64, error) { return p.WriteArrive(now, 0, block, nil) }},
		{"read", func() (int64, error) { return p.ReadArrive(now, 0, block, nil) }},
		{"write+span", func() (int64, error) { return p.WriteArrive(now, 0, block, span) }},
		{"read+span", func() (int64, error) { return p.ReadArrive(now, 0, block, span) }},
		{"two-segment write+span", func() (int64, error) { return p.WriteArrive(now, straddle, split, span) }},
		{"two-segment read+span", func() (int64, error) { return p.ReadArrive(now, straddle, split, span) }},
	}
	run := func(op func() (int64, error)) {
		done, err := op()
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for _, o := range ops { // touch every block once
		run(o.op)
	}
	for _, o := range ops {
		if n := testing.AllocsPerRun(500, func() { run(o.op) }); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", o.name, n)
		}
	}
}

// TestShardPanicReleasesLock: a panic inside a shard op comes back as
// an error naming the shard, and the deferred unlock leaves the shard
// usable for the next op.
func TestShardPanicReleasesLock(t *testing.T) {
	p, err := New(testConfig(64, 1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	err = p.shards[1].do(func(*core.Port) error { panic("poisoned op") })
	if err == nil || !strings.HasPrefix(err.Error(), "engine: shard 1: panic: poisoned op") {
		t.Fatalf("panic error = %v, want engine: shard 1: panic: poisoned op", err)
	}
	addr := p.GroupBytes() // group 1 lives on shard 1
	if p.ShardOf(addr) != 1 {
		t.Fatalf("address %d routes to shard %d, want 1", addr, p.ShardOf(addr))
	}
	want := make([]byte, p.BlockSize())
	for i := range want {
		want[i] = byte(i)
	}
	if err := p.Write(addr, want); err != nil {
		t.Fatalf("write after panic: %v", err)
	}
	got, err := p.Read(addr, len(want))
	if err != nil {
		t.Fatalf("read after panic: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("read-back after panic differs")
	}
}
