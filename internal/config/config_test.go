package config

import (
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.CPUFreqGHz != 4.0 {
		t.Errorf("CPU freq = %g, want 4.0", c.CPUFreqGHz)
	}
	if c.Cores != 4 {
		t.Errorf("cores = %d, want 4", c.Cores)
	}
	if c.ReadLatencyNS != 150 || c.WriteLatencyNS != 500 {
		t.Errorf("latencies = %d/%d, want 150/500", c.ReadLatencyNS, c.WriteLatencyNS)
	}
	if c.AESLatencyCycles != 40 || c.HashLatencyCycles != 40 {
		t.Errorf("crypto latencies = %d/%d, want 40/40", c.AESLatencyCycles, c.HashLatencyCycles)
	}
	if c.WPQEntries != 64 || c.PCBEntries != 8 {
		t.Errorf("WPQ/PCB = %d/%d, want 64/8", c.WPQEntries, c.PCBEntries)
	}
	if c.PUBBytes != 64<<20 {
		t.Errorf("PUB = %d, want 64MB", c.PUBBytes)
	}
	if c.CtrCacheBytes != 64<<10 || c.MACCacheBytes != 128<<10 || c.MTCacheBytes != 256<<10 {
		t.Errorf("metadata caches = %d/%d/%d, want 64k/128k/256k",
			c.CtrCacheBytes, c.MACCacheBytes, c.MTCacheBytes)
	}
	if c.NVMTreeLevels != 10 || c.CacheTreeLevels != 4 {
		t.Errorf("tree levels = %d/%d, want 10/4", c.NVMTreeLevels, c.CacheTreeLevels)
	}
}

func TestPartialsPerBlockMatchesTableI(t *testing.T) {
	// Table I: 9 updates in a 128B block, 19 updates in a 256B block.
	if got := Default().WithBlockSize(128).PartialsPerBlock(); got != 9 {
		t.Errorf("128B block packs %d partials, want 9", got)
	}
	if got := Default().WithBlockSize(256).PartialsPerBlock(); got != 19 {
		t.Errorf("256B block packs %d partials, want 19", got)
	}
}

func TestLatencyConversion(t *testing.T) {
	c := Default()
	if got := c.ReadLatencyCycles(); got != 600 {
		t.Errorf("read latency = %d cycles, want 600 (150ns at 4GHz)", got)
	}
	if got := c.WriteLatencyCycles(); got != 2000 {
		t.Errorf("write latency = %d cycles, want 2000 (500ns at 4GHz)", got)
	}
}

func TestMACGeometry(t *testing.T) {
	for _, bs := range []int{64, 128, 256} {
		c := Default().WithBlockSize(bs)
		if got := c.MACSize(); got != bs/8 {
			t.Errorf("block %d: MAC size = %d, want %d", bs, got, bs/8)
		}
		if got := c.MACsPerBlock(); got != 8 {
			t.Errorf("block %d: MACs per block = %d, want 8", bs, got)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad block size", func(c *Config) { c.BlockSize = 100 }},
		{"zero tx size", func(c *Config) { c.TxSize = 0 }},
		{"zero freq", func(c *Config) { c.CPUFreqGHz = 0 }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero memory", func(c *Config) { c.MemBytes = 0 }},
		{"memory over module bound", func(c *Config) { c.MemBytes = 64 << 30 }},
		{"zero read latency", func(c *Config) { c.ReadLatencyNS = 0 }},
		{"zero WPQ", func(c *Config) { c.WPQEntries = 0 }},
		{"PCB >= WPQ", func(c *Config) { c.PCBEntries = c.WPQEntries }},
		{"drain fraction > 1", func(c *Config) { c.WPQDrainFraction = 1.5 }},
		{"evict fraction 0", func(c *Config) { c.PUBEvictFraction = 0 }},
		{"tiny PUB", func(c *Config) { c.PUBBytes = 64 }},
		{"page not multiple of block", func(c *Config) { c.PageBytes = 1000 }},
		{"tiny counter cache", func(c *Config) { c.CtrCacheBytes = 8 }},
		{"zero ways", func(c *Config) { c.CtrCacheWays = 0 }},
		{"zero tree levels", func(c *Config) { c.NVMTreeLevels = 0 }},
		{"zero banks", func(c *Config) { c.NVMBanks = 0 }},
		{"negative read-behind", func(c *Config) { c.ReadBehindWrites = -1 }},
		{"PUB too small for PCB flush", func(c *Config) { c.PUBBytes = int64(c.BlockSize) * int64(c.PCBEntries) }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestWithWPQReservesEighth(t *testing.T) {
	// Section V-E: 1/8 of WPQ entries reserved for PCB.
	for _, n := range []int{16, 32, 64} {
		c := Default().WithWPQ(n)
		if c.PCBEntries != n/8 {
			t.Errorf("WPQ %d: PCB = %d, want %d", n, c.PCBEntries, n/8)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("WPQ %d: %v", n, err)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		BaselineStrict:   "baseline-strict",
		ThothWTSC:        "thoth-wtsc",
		ThothWTBC:        "thoth-wtbc",
		AnubisECC:        "anubis-ecc",
		TriadRelaxed(64): "triad-relaxed-64",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("scheme kind %d String() = %q, want %q", s.Kind(), s.String(), w)
		}
	}
	if got := (Scheme{kind: 99}).String(); got != "scheme(99)" {
		t.Errorf("unknown scheme string = %q", got)
	}
}

// The zero Scheme value must stay BaselineStrict: configs that never set
// the field keep their historical meaning.
func TestSchemeZeroValueIsBaseline(t *testing.T) {
	var z Scheme
	if z != BaselineStrict {
		t.Fatalf("zero Scheme = %v, want baseline-strict", z)
	}
}

// Property: ParseScheme is the exact inverse of Scheme.String() for
// every constructible scheme, so trace/JSONL schemeTag fields always
// decode back.
func TestSchemeStringRoundTripProperty(t *testing.T) {
	f := func(pick uint8, rawEpoch uint16) bool {
		fixed := []Scheme{BaselineStrict, ThothWTSC, ThothWTBC, AnubisECC}
		var s Scheme
		if int(pick)%5 < 4 {
			s = fixed[int(pick)%4]
		} else {
			s = TriadRelaxed(int(rawEpoch) + 1)
		}
		dec, err := ParseScheme(s.String())
		return err == nil && dec == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseSchemeRejectsGarbage(t *testing.T) {
	for _, name := range []string{
		"", "thoth", "wtsc", "THOTH-WTSC", "scheme(2)",
		"triad-relaxed-", "triad-relaxed-0", "triad-relaxed--3",
		"triad-relaxed-07", "triad-relaxed-x",
	} {
		if s, err := ParseScheme(name); err == nil {
			t.Errorf("ParseScheme(%q) = %v, want error", name, s)
		}
	}
}

func TestSchemeTextMarshalRoundTrip(t *testing.T) {
	for _, s := range []Scheme{BaselineStrict, ThothWTSC, TriadRelaxed(128)} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var dec Scheme
		if err := dec.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if dec != s {
			t.Errorf("round trip %v -> %q -> %v", s, b, dec)
		}
	}
}

func TestValidateSchemeCombos(t *testing.T) {
	if c := Default().WithScheme(TriadRelaxed(0)); c.Validate() == nil {
		t.Error("Validate accepted triad epoch 0")
	}
	c := Default().WithScheme(BaselineStrict)
	c.PCBAfterWPQ = true
	if c.Validate() == nil {
		t.Error("Validate accepted PCBAfterWPQ on baseline-strict")
	}
	c = Default().WithScheme(TriadRelaxed(4096))
	if err := c.Validate(); err != nil {
		t.Errorf("triad-relaxed-4096 default config invalid: %v", err)
	}
}

func TestIsThoth(t *testing.T) {
	if BaselineStrict.IsThoth() || AnubisECC.IsThoth() {
		t.Error("baseline/anubis-ecc must not report IsThoth")
	}
	if !ThothWTSC.IsThoth() || !ThothWTBC.IsThoth() {
		t.Error("WTSC/WTBC must report IsThoth")
	}
}

// Property: partial-entry packing never overflows the block, and always
// wastes less than one full entry of slack.
func TestPartialPackingProperty(t *testing.T) {
	f := func(pick uint8) bool {
		sizes := []int{64, 128, 256}
		c := Default().WithBlockSize(sizes[int(pick)%len(sizes)])
		n := c.PartialsPerBlock()
		bits := c.BlockSize * 8
		return n*PartialEntryBits <= bits && (n+1)*PartialEntryBits > bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cycle conversions are monotone in the nanosecond latencies.
func TestLatencyMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		la, lb := int(a)+1, int(b)+1
		ca := Default()
		ca.ReadLatencyNS = la
		cb := Default()
		cb.ReadLatencyNS = lb
		if la <= lb {
			return ca.ReadLatencyCycles() <= cb.ReadLatencyCycles()
		}
		return ca.ReadLatencyCycles() >= cb.ReadLatencyCycles()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
