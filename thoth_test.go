package thoth

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// testConfig shrinks the geometry so API tests run fast while exercising
// the full pipeline, including PUB evictions.
func testConfig(s Scheme) Config {
	cfg := DefaultConfig().WithScheme(s)
	cfg.MemBytes = 256 << 20
	cfg.PUBBytes = 16 << 10
	cfg.CtrCacheBytes = 4 << 10
	cfg.MACCacheBytes = 8 << 10
	cfg.MTCacheBytes = 16 << 10
	return cfg
}

func mustSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{BaselineStrict, WTSC, WTBC, AnubisECC} {
		t.Run(scheme.String(), func(t *testing.T) {
			s := mustSys(t, testConfig(scheme))
			data := bytes.Repeat([]byte{0xC3}, 512)
			if err := s.Write(1000, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Read(1000, 512)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip failed")
			}
		})
	}
}

func TestUnalignedWriteReadModifyWrite(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	// Lay down a full block, then overwrite 10 bytes in its middle.
	base := bytes.Repeat([]byte{0x11}, 128)
	if err := s.Write(0, base); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0x22}, 10)
	if err := s.Write(50, patch); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	copy(want[50:60], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("read-modify-write corrupted the block")
	}
}

func TestReadOfUnwrittenIsZero(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	got, err := s.Read(4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("unwritten region must read as zeros")
	}
}

func TestRangeValidation(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	if err := s.Write(-1, []byte{1}); err == nil {
		t.Error("negative offset must error")
	}
	if err := s.Write(s.DataSize(), []byte{1}); err == nil {
		t.Error("write past end must error")
	}
	if _, err := s.Read(s.DataSize()-1, 2); err == nil {
		t.Error("read past end must error")
	}
}

func TestElapsedAdvances(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	if s.Elapsed() != 0 {
		t.Fatal("fresh system must be at cycle 0")
	}
	s.Write(0, make([]byte, 128))
	if s.Elapsed() <= 0 || s.ElapsedSeconds() <= 0 {
		t.Fatal("writes must consume time")
	}
}

func TestCrashRecoverOpenCycle(t *testing.T) {
	cfg := testConfig(WTSC)
	s := mustSys(t, cfg)
	var want [][]byte
	for i := 0; i < 300; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 128)
		if err := s.Write(int64(i%37)*4096, data); err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
	}
	img, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}

	// System is dead.
	if err := s.Write(0, make([]byte, 128)); err == nil {
		t.Fatal("write after crash must error")
	}

	rep, err := Recover(cfg, img)
	if err != nil {
		t.Fatalf("recovery: %v (%s)", err, rep)
	}
	if !rep.RootVerified {
		t.Fatal("root must verify")
	}

	s2, err := Open(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 263; i < 300; i++ { // the newest write to each address
		got, err := s2.Read(int64(i%37)*4096, 128)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("write %d lost across crash", i)
		}
	}
}

func TestShutdownNeedsNoRecovery(t *testing.T) {
	cfg := testConfig(WTSC)
	s := mustSys(t, cfg)
	data := bytes.Repeat([]byte{0x7E}, 256)
	if err := s.Write(0, data); err != nil {
		t.Fatal(err)
	}
	img, err := s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Read(0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across clean shutdown")
	}
}

func TestTamperingDetectedByRecover(t *testing.T) {
	cfg := testConfig(WTSC)
	s := mustSys(t, cfg)
	for i := 0; i < 100; i++ {
		s.Write(int64(i)*4096, bytes.Repeat([]byte{byte(i)}, 128))
	}
	img, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	// Attacker flips a counter bit.
	regions, err := RegionsOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Peek(regions.CtrBase)
	blk[0] ^= 1
	img.WriteBlock(regions.CtrBase, blk)
	if _, err := Recover(cfg, img); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("err = %v, want ErrRootMismatch", err)
	}
}

func TestRegionsOfIsOrderedAndCoversPUB(t *testing.T) {
	cfg := testConfig(WTSC)
	r, err := RegionsOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DataBase != 0 || r.DataBytes <= 0 {
		t.Fatal("data region must start at 0")
	}
	if r.CtrBase != r.DataBytes || r.MACBase != r.CtrBase+r.CtrBytes {
		t.Fatal("regions must be contiguous")
	}
	if r.PUBBytes != cfg.PUBBytes-cfg.PUBBytes%int64(cfg.BlockSize) {
		t.Fatalf("PUB region %d bytes, want %d", r.PUBBytes, cfg.PUBBytes)
	}
	if _, err := RegionsOf(Config{}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestVerifyCrashConsistencyAPI(t *testing.T) {
	cfg := testConfig(WTSC)
	cfg.PUBBytes = 8 * int64(cfg.BlockSize)
	cfg.PCBEntries = 2
	s := mustSys(t, cfg)
	for i := 0; i < 400; i++ {
		s.Write(int64(i%23)*4096, bytes.Repeat([]byte{byte(i)}, 128))
	}
	if err := s.VerifyCrashConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.VerifyCrashConsistency(); err == nil {
		t.Fatal("verification after crash must error")
	}
}

func TestStatsExposed(t *testing.T) {
	s := mustSys(t, testConfig(WTSC))
	s.Write(0, make([]byte, 4096))
	st := s.Stats()
	if st.TotalWrites() == 0 {
		t.Fatal("stats must report writes")
	}
}

func TestEstimateRecoverySeconds(t *testing.T) {
	secs := EstimateRecoverySeconds(DefaultConfig())
	if secs < 1 || secs > 20 {
		t.Fatalf("recovery estimate %.2fs out of the paper's ~7s ballpark", secs)
	}
}

func TestRunWorkloadAPI(t *testing.T) {
	cfg := testConfig(WTSC)
	cfg.PUBBytes = 256 << 10
	cfg.CtrCacheBytes = 64 << 10
	cfg.MACCacheBytes = 128 << 10
	cfg.MTCacheBytes = 256 << 10
	cfg.LLCBytes = 1 << 20
	res, err := RunWorkload(RunConfig{
		Config:     cfg,
		Workload:   "btree",
		WarmupTxs:  100,
		MeasureTxs: 300,
		SetupKeys:  1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Stats.TotalWrites() == 0 {
		t.Fatal("workload run produced no measurements")
	}
}

func TestWorkloadNamesMatchHarness(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 workloads, got %v", names)
	}
	for _, n := range names {
		cfg := testConfig(WTSC)
		cfg.LLCBytes = 1 << 20
		if _, err := RunWorkload(RunConfig{Config: cfg, Workload: n, MeasureTxs: 20, SetupKeys: 64}); err != nil {
			t.Errorf("workload %s: %v", n, err)
		}
	}
}

// Property: arbitrary write patterns followed by a crash and recovery
// never lose the newest persisted value of any offset.
func TestCrashConsistencyProperty(t *testing.T) {
	f := func(ops []struct {
		Slot uint8
		Tag  byte
	}) bool {
		cfg := testConfig(WTSC)
		cfg.PUBBytes = 8 * int64(cfg.BlockSize) // force eviction churn
		cfg.PCBEntries = 2
		s, err := New(cfg)
		if err != nil {
			return false
		}
		model := map[int64]byte{}
		for _, op := range ops {
			addr := int64(op.Slot%32) * 4096
			if err := s.Write(addr, bytes.Repeat([]byte{op.Tag}, 128)); err != nil {
				return false
			}
			model[addr] = op.Tag
		}
		img, err := s.Crash()
		if err != nil {
			return false
		}
		if _, err := Recover(cfg, img); err != nil {
			return false
		}
		s2, err := Open(cfg, img)
		if err != nil {
			return false
		}
		for addr, tag := range model {
			got, err := s2.Read(addr, 128)
			if err != nil || got[0] != tag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestImagePersistenceAcrossProcessBoundary(t *testing.T) {
	// Crash -> save image -> load image -> recover -> read: the full
	// "reboot" story including serialization.
	cfg := testConfig(WTSC)
	s := mustSys(t, cfg)
	payload := bytes.Repeat([]byte{0xD4}, 256)
	if err := s.Write(8192, payload); err != nil {
		t.Fatal(err)
	}
	img, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveImage(img, &buf); err != nil {
		t.Fatal(err)
	}
	img2, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(cfg, img2); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg, img2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Read(8192, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across serialization boundary")
	}
}

func TestReplayAPI(t *testing.T) {
	cfg := testConfig(WTSC)
	cfg.LLCBytes = 1 << 20
	trace := "S 0x0 128\nP 0x0 128\nF\nL 0x0 128\n"
	res, err := Replay(cfg, strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4 || res.Cycles <= 0 {
		t.Fatalf("replay result %+v implausible", res)
	}
}

// TestGeometryMismatchRejected pins that a configuration whose geometry
// does not match a crash image is an error at every entry point that
// interprets the image — never a panic inside recovery and never a
// silently accepted attach.
func TestGeometryMismatchRejected(t *testing.T) {
	cfg := testConfig(WTSC)
	cfg.MemBytes = 64 << 20
	s := mustSys(t, cfg)
	for i := 0; i < 200; i++ {
		if err := s.Write(int64(i%29)*4096, bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	recoverSerial := func(c Config, d *Device) error { _, err := Recover(c, d); return err }
	recoverParallel := func(c Config, d *Device) error {
		_, err := RecoverParallel(c, d, RecoverOpts{Workers: 2})
		return err
	}
	open := func(c Config, d *Device) error { _, err := Open(c, d); return err }
	with := func(mut func(*Config)) Config { c := cfg; mut(&c); return c }
	for _, tc := range []struct {
		name    string
		cfg     Config
		entry   func(Config, *Device) error
		wantErr bool
	}{
		{"recover block size", with(func(c *Config) { c.BlockSize = 64 }), recoverSerial, true},
		{"recover-parallel block size", with(func(c *Config) { c.BlockSize = 64 }), recoverParallel, true},
		{"recover larger module", with(func(c *Config) { c.MemBytes = 1 << 28 }), recoverSerial, true},
		{"recover-parallel larger module", with(func(c *Config) { c.MemBytes = 1 << 28 }), recoverParallel, true},
		{"open smaller module", with(func(c *Config) { c.MemBytes = 1 << 24 }), open, true},
		{"recover matching", cfg, recoverSerial, false},
		{"recover-parallel matching", cfg, recoverParallel, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			err := tc.entry(tc.cfg, img.Clone())
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
		})
	}
	// The matching configuration reopens the recovered image.
	dev := img.Clone()
	if err := recoverSerial(cfg, dev); err != nil {
		t.Fatal(err)
	}
	if err := open(cfg, dev); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
}
