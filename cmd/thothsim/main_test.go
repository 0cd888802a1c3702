package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
)

// The smoke tests run the real CLI entry point end to end at tiny scale:
// flag parsing, a full simulation, and report formatting.

func TestRunSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"workload=swap", "scheme=thoth-wtsc", "cycles=", "pcb-merge-rate="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCrashRecover(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "hashmap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16", "-crash",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "recovery:") {
		t.Errorf("crash run must print a recovery report:\n%s", out.String())
	}
}

func TestRunWritesValidTraces(t *testing.T) {
	for _, format := range []string{"jsonl", "chrome"} {
		path := filepath.Join(t.TempDir(), "trace."+format)
		var out, errw bytes.Buffer
		code := run([]string{
			"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
			"-trace", path, "-trace-format", format,
		}, &out, &errw)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", format, code, errw.String())
		}
		if !strings.Contains(out.String(), "trace: ") {
			t.Errorf("%s: output missing trace summary:\n%s", format, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		if format == "jsonl" {
			n, err = obs.ValidateJSONL(f)
		} else {
			n, err = obs.ValidateChrome(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s trace invalid: %v", format, err)
		}
		if n == 0 {
			t.Errorf("%s trace is empty", format)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-scheme", "nonsense"}, &out, &errw); code != 1 {
		t.Fatalf("bad scheme: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "unknown scheme") {
		t.Errorf("stderr missing diagnosis: %s", errw.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestParseScheme(t *testing.T) {
	for in, wantErr := range map[string]bool{
		"baseline": false, "thoth-wtsc": false, "WTBC": false, "ideal": false,
		"triad-relaxed-16": false, "bogus": true,
	} {
		if _, err := scheme.Parse(in); (err != nil) != wantErr {
			t.Errorf("scheme.Parse(%q) err=%v, wantErr=%v", in, err, wantErr)
		}
	}
}

func TestRunCrashRecoverParallel(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "hashmap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
		"-crash", "-recovery-workers", "2",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "parallel: 2 workers") {
		t.Errorf("parallel crash run must print the per-shard report:\n%s", out.String())
	}
}

// TestRunBatchedPersistFlags pins that -persist-batch only applies to
// the sharded pool mode: without -shards it is a usage error (exit 2)
// rather than a silently ignored flag.
func TestRunBatchedPersistFlags(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-workload", "swap", "-txs", "30", "-warmup", "5", "-setup", "64", "-pub", "16",
		"-persist-batch", "8",
	}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "-persist-batch requires -shards") {
		t.Errorf("usage error not reported: %q", errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("usage error must not run the harness:\n%s", out.String())
	}
}

// TestRunPoolThroughput drives `thothsim -shards N` end to end: seeded
// random persists through the sharded pool, throughput plus pooled and
// per-shard stats on stdout.
func TestRunPoolThroughput(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-shards", "2", "-txs", "400", "-persist-batch", "16", "-verify"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"pool shards=2", "ops/sec=", "shard 0:", "shard 1:", "verify: all shards consistent"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPoolCrashRecover crashes the even-indexed shard subset after
// the run, recovers it, and verifies every written block.
func TestRunPoolCrashRecover(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-shards", "2", "-txs", "400", "-crash", "-recovery-workers", "2"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	for _, want := range []string{"crashed shards [true false]", "1/2 shards recovered", "recovery verified:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPoolRejectsBadShards pins the divisibility validation end to
// end: 3 does not divide the 1 GiB module.
func TestRunPoolRejectsBadShards(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-shards", "3", "-txs", "10"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "thothsim: pool:") {
		t.Errorf("bad shard count not reported: %q", errw.String())
	}
}
