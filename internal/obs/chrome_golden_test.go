package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a fixed sequence exercising every field: the exporter
// output for it is byte-compared against testdata/chrome.golden.json.
var goldenEvents = []Event{
	{Kind: KindPCBFlush, Cycle: 4000, Addr: 0x6400080, Aux: 9, Scheme: "thoth-wtsc"},
	{Kind: KindPUBEvict, Cycle: 5200, Addr: 0x4000100, Aux: 0x6400080, Scheme: "thoth-wtsc", Part: "ctr", Detail: "written-back"},
	{Kind: KindPUBEvict, Cycle: 5200, Addr: 0x5000100, Aux: 0x6400080, Scheme: "thoth-wtsc", Part: "mac", Detail: "stale-copy"},
	{Kind: KindCtrOverflow, Cycle: 6001, Addr: 0x1000, Aux: 32, Scheme: "thoth-wtbc"},
	{Kind: KindWPQDrain, Cycle: 7000, Addr: 0x2080, Scheme: "baseline-strict", Detail: DrainWatermark},
	{Kind: KindCacheEvict, Cycle: 8000, Addr: 0x4000200, Aux: 1, Scheme: "thoth-wtsc", Part: "mt"},
	{Kind: KindTreeUpdate, Cycle: 8500, Addr: 0x5800000, Aux: 2, Scheme: "thoth-wtsc"},
	{Kind: KindRecoveryMerge, Cycle: 125, Addr: 0x3000, Scheme: "thoth-wtsc", Detail: "ctr+mac"},
	{Kind: KindRecoveryPhase, Cycle: 0, Aux: 0, Scheme: "thoth-wtsc", Part: PhaseScan, Detail: PhaseBegin},
	{Kind: KindRecoveryPhase, Cycle: 600, Aux: 0, Scheme: "thoth-wtsc", Part: PhaseScan, Detail: PhaseEnd},
	{Kind: KindRecoveryPhase, Cycle: 600, Aux: 2, Scheme: "thoth-wtsc", Part: PhaseMerge, Detail: PhaseBegin},
	{Kind: KindRecoveryPhase, Cycle: 6480, Aux: 2, Scheme: "thoth-wtsc", Part: PhaseMerge, Detail: PhaseEnd},
	{Kind: KindPersistStage, Cycle: 9000, Aux: 64, Scheme: "thoth-wtsc", Part: StageCommit, Detail: PhaseBegin},
	{Kind: KindPersistStage, Cycle: 10200, Aux: 64, Scheme: "thoth-wtsc", Part: StageCommit, Detail: PhaseEnd},
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf, 4.0)
	for _, e := range goldenEvents {
		c.Emit(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The golden file itself must stay a well-formed trace_event array.
	if n, err := ValidateChrome(bytes.NewReader(want)); err != nil || n != len(goldenEvents) {
		t.Fatalf("golden file invalid: n=%d err=%v", n, err)
	}
}
