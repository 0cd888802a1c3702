package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestChargePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/bitpack.Get":             "bitpack",
		"repro/internal/core.(*Controller).Read": "core",
		"repro/internal/nosuch.F":                "other",
		"repro.(*System).Write":                  "thoth",
		"main.runKVCrash":                        "bench",
		"runtime.mallocgc":                       "",
		"crypto/aes.(*aesCipher).Encrypt":        "",
	} {
		if got := chargePackage(fn); got != want {
			t.Errorf("chargePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	vs := []int64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}
	if got := quantile(vs, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := quantile(vs, 0.99); got != 10 {
		t.Errorf("p99 = %d, want 10", got)
	}
	vc := newValueCounts()
	for _, v := range []int64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10} {
		vc.add(v)
	}
	if got := vc.quantile(0.5); got != 5 {
		t.Errorf("counted p50 = %d, want 5", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// TestCPUShares decodes a real CPU profile of a busy loop in this
// package: its samples must be charged to "bench".
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got := map[string]int64{}
	if err := cpuShares(prof.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range got {
		total += c
	}
	if total == 0 || got["bench"]*2 < total {
		t.Fatalf("bench charged %d of %d samples (%v), want most", got["bench"], total, got)
	}
}
