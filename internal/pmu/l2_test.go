package pmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rcd"
	"repro/internal/trace"
	"repro/internal/vmem"
)

func l2cfg(period PeriodDist, space *vmem.Space) L2Config {
	return L2Config{
		L1:     mem.MustGeometry(64, 4, 2), // tiny L1 so traffic reaches L2
		L2:     mem.MustGeometry(64, 16, 2),
		Period: period,
		Seed:   1,
		Space:  space,
	}
}

func TestL2SamplerOnlyL2MissesCount(t *testing.T) {
	s := NewL2Sampler(l2cfg(Fixed(1), nil))
	// One line, accessed repeatedly: first ref misses L1+L2 (1 event),
	// the rest hit L1.
	for i := 0; i < 10; i++ {
		feed(s, trace.Ref{Addr: 0x100})
	}
	if s.Events != 1 {
		t.Errorf("events = %d, want 1", s.Events)
	}
	if len(s.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(s.Samples))
	}
	if s.Refs != 10 {
		t.Errorf("refs = %d", s.Refs)
	}
}

func TestL2SamplerL1FilterShieldsL2(t *testing.T) {
	s := NewL2Sampler(l2cfg(Fixed(1), nil))
	// Two lines in the same tiny-L1 set thrash L1 but fit the larger L2:
	// after the two cold L2 misses, all L2 lookups hit.
	a := uint64(0)
	b := uint64(4 * 64) // same L1 set (4 sets), different L2 set (16 sets)
	for i := 0; i < 20; i++ {
		feed(s, trace.Ref{Addr: a})
		feed(s, trace.Ref{Addr: b})
		feed(s, trace.Ref{Addr: a + 8*64}) // third line, same L1 set -> L1 thrash
	}
	if s.Events != 3 {
		t.Errorf("L2 events = %d, want 3 cold only (L2 should absorb the L1 thrash)", s.Events)
	}
}

func TestL2SamplerIdentitySpacePhysEqualsVirt(t *testing.T) {
	s := NewL2Sampler(l2cfg(Fixed(1), nil))
	feed(s, trace.Ref{IP: 7, Addr: 0xabc0})
	if len(s.Samples) != 1 {
		t.Fatal("no sample")
	}
	sm := s.Samples[0]
	if sm.PAddr != sm.VAddr || sm.VAddr != 0xabc0 || sm.IP != 7 {
		t.Errorf("sample = %+v", sm)
	}
}

func TestL2SamplerTranslatesThroughSpace(t *testing.T) {
	space := vmem.NewSpace(vmem.Sequential, nil)
	s := NewL2Sampler(l2cfg(Fixed(1), space))
	// Touch a high virtual page; sequential allocation maps it to frame 0.
	v := uint64(1000*vmem.PageSize + 0x40)
	feed(s, trace.Ref{Addr: v})
	sm := s.Samples[0]
	if sm.VAddr != v {
		t.Errorf("vaddr = %#x", sm.VAddr)
	}
	if sm.PAddr != 0x40 {
		t.Errorf("paddr = %#x, want frame 0 + offset 0x40", sm.PAddr)
	}
}

// The headline property of the physically-indexed extension: a kernel whose
// virtual pages conflict in the L2 keeps conflicting under identity
// mapping, but random frame allocation recolours the pages and disperses
// the physical sets.
func TestPageColouringChangesL2Conflicts(t *testing.T) {
	// L2 with 64 sets x 64B lines: 4096B of sets = exactly one page, so
	// page colour fully determines nothing... use 512 sets (32KB span,
	// 8 page colours).
	l1 := mem.MustGeometry(64, 4, 2)
	l2 := mem.MustGeometry(64, 4096, 8) // 256KiB set span = 64 page colours
	run := func(space *vmem.Space, seed int64) float64 {
		s := NewL2Sampler(L2Config{L1: l1, L2: l2, Period: Fixed(1), Seed: seed, Space: space})
		// Column walk with a 256KiB stride: under identity mapping every
		// access lands in the same L2 set; with 64 colours available,
		// random recolouring gives each touched page its own colour
		// almost surely.
		tr := rcd.New(l2.Sets)
		for rep := 0; rep < 4; rep++ {
			for row := 0; row < 64; row++ {
				feed(s, trace.Ref{Addr: uint64(row) * 256 * 1024})
			}
		}
		for _, sm := range s.Samples {
			tr.Observe(l2.Set(sm.PAddr))
		}
		return tr.ContributionFactor(rcd.DefaultThreshold)
	}
	cfIdentity := run(vmem.NewSpace(vmem.Identity, nil), 1)
	cfRandom := run(vmem.NewSpace(vmem.Random, nil), 1)
	if cfIdentity < 0.9 {
		t.Errorf("identity-mapped column walk cf = %.2f, want ~1", cfIdentity)
	}
	if cfRandom > cfIdentity/2 {
		t.Errorf("random page colouring should disperse conflicts: cf %.2f vs identity %.2f",
			cfRandom, cfIdentity)
	}
}

func TestL2MissRatio(t *testing.T) {
	s := NewL2Sampler(l2cfg(Fixed(1), nil))
	feed(s, trace.Ref{Addr: 0})
	if s.L2MissRatio() != 1 {
		t.Errorf("L2 miss ratio = %g, want 1 after one cold miss", s.L2MissRatio())
	}
}

func TestL2SamplerPeriodDefault(t *testing.T) {
	s := NewL2Sampler(L2Config{L1: mem.MustGeometry(64, 4, 2), L2: mem.MustGeometry(64, 16, 2)})
	if s.cfg.Period.Mean() != DefaultPeriod {
		t.Errorf("default period = %g", s.cfg.Period.Mean())
	}
}
