// Package config defines the target-system configuration: the modelled
// 16-node shared-memory multiprocessor (similar to a Sun E10000) from
// §3.2.1 of the paper, plus processor-model and perturbation settings.
//
// All latencies are in nanoseconds; the modelled system clock is 1 GHz,
// so nanoseconds and cycles are interchangeable.
package config

import "fmt"

// ProcessorKind selects between the two processor models of §3.2.4.
type ProcessorKind uint8

const (
	// SimpleProc is the fast blocking in-order model: one instruction per
	// cycle if the L1 caches were perfect, at most one outstanding miss.
	SimpleProc ProcessorKind = iota
	// OOOProc is the TFsim-like detailed model: 4-wide out-of-order core
	// with a reorder buffer, branch predictors and overlapping misses.
	OOOProc
)

func (k ProcessorKind) String() string {
	if k == SimpleProc {
		return "simple"
	}
	return "ooo"
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int   // total capacity
	Assoc     int   // ways; 1 = direct-mapped
	BlockBits uint  // log2(block size); 6 = 64-byte blocks
	HitNS     int64 // access latency on hit
}

// MaxAssoc is the largest associativity the cache model represents: it
// keeps a set's replacement order as one rank byte per way and a set's
// lines inside one 256-line copy-on-write page (see internal/mem). The
// page would hold a wider set; no configuration in use asks for one.
const MaxAssoc = 128

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Assoc << c.BlockBits)
}

// Validate reports whether the geometry is self-consistent.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("config: non-positive cache size or associativity")
	}
	if c.Assoc > MaxAssoc {
		return fmt.Errorf("config: associativity %d exceeds the maximum of %d ways", c.Assoc, MaxAssoc)
	}
	blk := 1 << c.BlockBits
	if c.SizeBytes%(c.Assoc*blk) != 0 {
		return fmt.Errorf("config: cache size %d not divisible by assoc*block %d", c.SizeBytes, c.Assoc*blk)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: set count %d not a power of two", s)
	}
	return nil
}

// OOOConfig parameterizes the out-of-order model (TFsim-like, §3.2.4).
type OOOConfig struct {
	Width         int // fetch/dispatch/retire width (4 in the paper)
	ROBEntries    int // reorder buffer size: 16/32/64 in Experiment 2
	PipelineDepth int // front-end depth charged on branch misprediction (11 stages)
	MSHRs         int // maximum outstanding misses
	// Branch predictor geometry (per §3.2.4).
	YAGSChoiceBits  uint // log2 entries of the YAGS choice PHT
	YAGSExcBits     uint // log2 entries of each YAGS exception cache
	IndirectEntries int  // cascaded indirect predictor entries (64)
	RASEntries      int  // return address stack entries (64)
}

// Config is the full target-system configuration.
type Config struct {
	NumCPUs int // 16 in the paper

	L1I CacheConfig // 128 KB 4-way 64 B
	L1D CacheConfig // 128 KB 4-way 64 B
	L2  CacheConfig // 4 MB, associativity is Experiment 1's variable

	// Interconnect & memory timing (§3.2.1).
	NetHopNS        int64 // one network traversal: 50 ns
	MemSupplyNS     int64 // memory provides data to interconnect: 80 ns (DRAM access)
	CacheSupplyNS   int64 // a processor provides data: 25 ns
	BusOccupancyNS  int64 // snoop/address-network serialization per transaction
	DRAMBanksPerCtl int   // banks per memory controller (queueing)

	// Operating-system model.
	QuantumNS        int64 // scheduling quantum
	CtxSwitchInstrs  int64 // instructions charged to a context switch
	ThreadsPerCPU    int   // user threads per processor (8 for OLTP, §3.1)
	MigrationPenalty int64 // extra dispatch latency when a thread moves CPUs

	// CoherenceMESI selects MESI instead of the paper's MOSI snooping
	// protocol (an ablation knob; the Multifacet simulator supported a
	// broad range of protocols, §3.2.3).
	CoherenceMESI bool

	// Variability injection (§3.3).
	PerturbMaxNS int64 // uniform random addition to each L2 miss: 0..PerturbMaxNS
	// PerturbQuantum optionally jitters scheduling quanta instead of (or in
	// addition to) miss latency; an ablation beyond the paper.
	PerturbQuantumNS int64
	// PerturbWakeNS optionally jitters scheduler wakeup latency (lock
	// handoffs, barrier releases); an ablation beyond the paper that
	// injects the noise on the OS side instead of the memory side.
	PerturbWakeNS int64

	Processor ProcessorKind
	OOO       OOOConfig
}

// Default returns the paper's target system: 16 nodes, 128 KB 4-way split
// L1s, 4 MB 4-way L2, MOSI snooping over a two-level crossbar with 50 ns
// hops, 80 ns DRAM, 25 ns cache-to-cache supply (=> 180 ns memory /
// 125 ns cache-to-cache total), simple processor model, 0-4 ns
// perturbation on L2 misses.
func Default() Config {
	return Config{
		NumCPUs: 16,
		L1I:     CacheConfig{SizeBytes: 128 << 10, Assoc: 4, BlockBits: 6, HitNS: 0},
		L1D:     CacheConfig{SizeBytes: 128 << 10, Assoc: 4, BlockBits: 6, HitNS: 0},
		L2:      CacheConfig{SizeBytes: 4 << 20, Assoc: 4, BlockBits: 6, HitNS: 20},

		NetHopNS:      50,
		MemSupplyNS:   80,
		CacheSupplyNS: 25,
		// The E10000 interleaves four address buses; ~2.5 ns effective
		// snoop occupancy keeps 16 processors from saturating the
		// address network, as on the real machine.
		BusOccupancyNS:  2,
		DRAMBanksPerCtl: 4,

		QuantumNS:        1_000_000, // 1 ms
		CtxSwitchInstrs:  2000,
		ThreadsPerCPU:    8,
		MigrationPenalty: 1000,

		PerturbMaxNS: 4,

		Processor: SimpleProc,
		OOO: OOOConfig{
			Width:           4,
			ROBEntries:      64,
			PipelineDepth:   11,
			MSHRs:           8,
			YAGSChoiceBits:  12,
			YAGSExcBits:     10,
			IndirectEntries: 64,
			RASEntries:      64,
		},
	}
}

// MemoryLatencyNS returns the uncontended latency of a block fetched from
// memory: request hop + DRAM + data hop (180 ns with defaults).
func (c Config) MemoryLatencyNS() int64 {
	return c.NetHopNS + c.MemSupplyNS + c.NetHopNS
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if c.NumCPUs <= 0 {
		return fmt.Errorf("config: NumCPUs must be positive")
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if err := cc.c.Validate(); err != nil {
			return fmt.Errorf("%s: %w", cc.name, err)
		}
	}
	if c.L1D.BlockBits != c.L2.BlockBits || c.L1I.BlockBits != c.L2.BlockBits {
		return fmt.Errorf("config: L1/L2 block sizes must match")
	}
	if c.QuantumNS <= 0 {
		return fmt.Errorf("config: QuantumNS must be positive")
	}
	if c.ThreadsPerCPU <= 0 {
		return fmt.Errorf("config: ThreadsPerCPU must be positive")
	}
	if c.PerturbMaxNS < 0 || c.PerturbQuantumNS < 0 || c.PerturbWakeNS < 0 {
		return fmt.Errorf("config: perturbation magnitudes must be non-negative")
	}
	if c.Processor == OOOProc {
		o := c.OOO
		if o.Width <= 0 || o.ROBEntries <= 0 || o.MSHRs <= 0 || o.PipelineDepth <= 0 {
			return fmt.Errorf("config: invalid OOO parameters %+v", o)
		}
	}
	return nil
}
