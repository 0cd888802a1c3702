package bitpack_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/ctr"
	"repro/internal/pub"
)

// TestCodecZeroAlloc pins the codec's callers on the persist and
// recovery hot paths to zero allocations: packing a PUB block, unpacking
// one into a reused slice, and bumping a minor counter.
func TestCodecZeroAlloc(t *testing.T) {
	cfg := config.Default()
	entries := make([]pub.Entry, cfg.PartialsPerBlock())
	for i := range entries {
		entries[i] = pub.Entry{BlockIndex: uint32(i), MAC2: uint64(i) * 0x9E3779B97F4A7C15, Minor: uint8(i), Status: uint8(i % 4)}
	}
	block := make([]byte, cfg.BlockSize)
	dst := make([]pub.Entry, 0, len(entries))
	counters := make([]byte, cfg.BlockSize)
	slots := ctr.MaxSlots(len(counters))
	cases := []struct {
		name string
		fn   func()
	}{
		{"pub.PackBlockInto", func() { pub.PackBlockInto(block, entries) }},
		{"pub.UnpackBlockAppend", func() { dst = pub.UnpackBlockAppend(dst[:0], len(block), block) }},
		{"ctr.Bump", func() {
			for s := 0; s < slots; s++ {
				ctr.Bump(counters, s)
			}
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, n)
		}
	}
}
