package config

import (
	"fmt"
	"strings"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPaperLatencies(t *testing.T) {
	c := Default()
	if got := c.MemoryLatencyNS(); got != 180 {
		t.Errorf("memory latency %d ns, paper says 180", got)
	}
	// Cache to cache: request hop + owner supply + data hop.
	if got := c.NetHopNS + c.CacheSupplyNS + c.NetHopNS; got != 125 {
		t.Errorf("cache-to-cache latency %d ns, paper says 125", got)
	}
}

func TestPaperGeometry(t *testing.T) {
	c := Default()
	if c.NumCPUs != 16 {
		t.Errorf("NumCPUs = %d, want 16", c.NumCPUs)
	}
	if c.L1D.Sets() != 512 {
		t.Errorf("L1D sets = %d, want 512 (128KB 4-way 64B)", c.L1D.Sets())
	}
	if c.L2.Sets() != 16384 {
		t.Errorf("L2 sets = %d, want 16384 (4MB 4-way 64B)", c.L2.Sets())
	}
	if c.PerturbMaxNS != 4 {
		t.Errorf("PerturbMaxNS = %d, want 4", c.PerturbMaxNS)
	}
}

func TestCacheValidate(t *testing.T) {
	bad := CacheConfig{SizeBytes: 100, Assoc: 3, BlockBits: 6}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for non-divisible geometry")
	}
	bad = CacheConfig{SizeBytes: 0, Assoc: 1, BlockBits: 6}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero size")
	}
	// 4MB 3-way would give a non-power-of-two set count only if it divides;
	// 3 ways * 64B = 192; 4MB/192 is not integral -> divisibility error.
	bad = CacheConfig{SizeBytes: 4 << 20, Assoc: 3, BlockBits: 6}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for 3-way 4MB")
	}
	good := CacheConfig{SizeBytes: 4 << 20, Assoc: 2, BlockBits: 6}
	if err := good.Validate(); err != nil {
		t.Errorf("2-way 4MB should validate: %v", err)
	}
	if good.Sets() != 32768 {
		t.Errorf("2-way 4MB sets = %d, want 32768", good.Sets())
	}
}

// TestAssocBound: every associativity up to MaxAssoc validates, and the
// first one the cache model cannot represent is refused with an error
// that names both numbers — at the cache and through the whole config.
func TestAssocBound(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8, 16, MaxAssoc} {
		c := CacheConfig{SizeBytes: 4 * assoc * 64, Assoc: assoc, BlockBits: 6}
		if err := c.Validate(); err != nil {
			t.Errorf("assoc %d should validate: %v", assoc, err)
		}
	}
	for _, assoc := range []int{MaxAssoc + 1, 2 * MaxAssoc, 255, 256, 1 << 20} {
		c := CacheConfig{SizeBytes: 4 * assoc * 64, Assoc: assoc, BlockBits: 6}
		err := c.Validate()
		if err == nil {
			t.Errorf("assoc %d validated, want it refused", assoc)
			continue
		}
		if want := fmt.Sprintf("associativity %d exceeds the maximum of %d ways", assoc, MaxAssoc); !strings.Contains(err.Error(), want) {
			t.Errorf("assoc %d: error %q does not say %q", assoc, err, want)
		}
	}
	cfg := Default()
	cfg.L2.Assoc = 2 * MaxAssoc
	if err := cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), "L2: ") {
		t.Errorf("Config.Validate with an over-wide L2 = %v, want an L2 error", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NumCPUs = 0 },
		func(c *Config) { c.QuantumNS = 0 },
		func(c *Config) { c.ThreadsPerCPU = 0 },
		func(c *Config) { c.PerturbMaxNS = -1 },
		func(c *Config) { c.L1D.BlockBits = 5 },
		func(c *Config) { c.Processor = OOOProc; c.OOO.ROBEntries = 0 },
	}
	for i, mut := range cases {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestProcessorKindString(t *testing.T) {
	if SimpleProc.String() != "simple" || OOOProc.String() != "ooo" {
		t.Error("ProcessorKind.String mismatch")
	}
}
