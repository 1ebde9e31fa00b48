package pmu

import (
	"math/rand"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// PhysSample is an address sample of an L2-miss event. L2 caches are
// physically indexed, so the record carries both the virtual address (for
// data-centric attribution against the allocation log) and the physical
// address (for set attribution) — the pair a PEBS record plus a pagemap
// lookup yields.
type PhysSample struct {
	IP    uint64
	VAddr uint64
	PAddr uint64
}

// L2Config configures an L2Sampler.
type L2Config struct {
	L1     mem.Geometry // private L1 in front of the sampled L2
	L2     mem.Geometry // the physically-indexed, sampled cache
	Period PeriodDist   // nil selects Uniform(DefaultPeriod)
	Seed   int64
	Space  *vmem.Space // nil selects an identity-mapped space
}

// L2Sampler extends CCProf to the physically-indexed L2, the extension the
// paper's footnote 1 declares out of scope. The simulated hardware
// translates each reference through the address space's page table, runs
// it through L1 and (on L1 miss) the physically-indexed L2, and raises a
// sample every period-th L2-miss event.
//
// It implements trace.Sink.
type L2Sampler struct {
	cfg   L2Config
	l1    *cache.Cache
	l2    *cache.Cache
	space *vmem.Space
	rng   *rand.Rand
	next  uint64

	// Events counts L2-miss events; Refs all references observed.
	Events uint64
	Refs   uint64
	// Samples is the collected buffer.
	Samples []PhysSample
}

// NewL2Sampler returns a sampler with the given configuration.
func NewL2Sampler(cfg L2Config) *L2Sampler {
	if cfg.Period == nil {
		cfg.Period = Uniform(DefaultPeriod)
	}
	if cfg.Space == nil {
		cfg.Space = vmem.NewSpace(vmem.Identity, nil)
	}
	s := &L2Sampler{
		cfg:   cfg,
		l1:    cache.New(cfg.L1, cache.LRU, nil),
		l2:    cache.New(cfg.L2, cache.LRU, nil),
		space: cfg.Space,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	s.next = cfg.Period.NextPeriod(s.rng)
	return s
}

// RefBlock implements trace.Sink.
func (s *L2Sampler) RefBlock(b *trace.RefBlock) {
	for i, addr := range b.Addr {
		s.Refs++
		// L1 is virtually indexed: look up with the virtual address.
		if s.l1.Access(addr).Hit {
			continue
		}
		// L2 is physically indexed: translate first.
		paddr := s.space.Translate(addr)
		if s.l2.Access(paddr).Hit {
			continue
		}
		s.Events++
		s.next--
		if s.next > 0 {
			continue
		}
		s.next = s.cfg.Period.NextPeriod(s.rng)
		s.Samples = append(s.Samples, PhysSample{IP: b.IP[i], VAddr: addr, PAddr: paddr})
	}
}
