package pmu

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Geom: mem.L1Default(), Period: Uniform(171)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	nilPeriod := Config{Geom: mem.L1Default()}
	if err := nilPeriod.Validate(); err != nil {
		t.Fatalf("nil period must be valid (NewSampler defaults it): %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero geometry", Config{}, ErrBadGeometry},
		{"zero period", Config{Geom: mem.L1Default(), Period: Fixed(0)}, ErrBadPeriod},
		{"zero uniform period", Config{Geom: mem.L1Default(), Period: Uniform(0)}, ErrBadPeriod},
		{"negative max samples", Config{Geom: mem.L1Default(), MaxSamples: -1}, ErrBadMaxSamples},
		{"negative burst", Config{Geom: mem.L1Default(), Burst: -2}, ErrBadBurst},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

// scriptedInjector drops, corrupts or truncates samples by scripted index,
// and doubles every period — a deterministic stand-in for faultinj.
type scriptedInjector struct {
	drop, trunc, corrupt map[uint64]bool
}

func (s *scriptedInjector) SkewPeriod(p uint64) uint64 { return 2 * p }

func (s *scriptedInjector) OnSample(n uint64, sm Sample) (Sample, FaultAction) {
	switch {
	case s.drop[n]:
		return sm, FaultDrop
	case s.trunc[n]:
		return sm, FaultTruncate
	case s.corrupt[n]:
		sm.Addr ^= 1 << 7
		return sm, FaultCorrupt
	}
	return sm, FaultKeep
}

// thrash streams n references that all miss (distinct lines cycling far
// beyond L1 capacity), so every reference is a miss event.
func thrash(s *Sampler, n int) {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{IP: 0x400000, Addr: uint64(i) * 4096}
	}
	emitAll(s, refs)
}

func TestSamplerFaultInjection(t *testing.T) {
	inj := &scriptedInjector{
		drop:    map[uint64]bool{0: true, 2: true},
		trunc:   map[uint64]bool{3: true, 4: true, 5: true},
		corrupt: map[uint64]bool{6: true},
	}
	s := NewSampler(Config{Geom: mem.L1Default(), Period: Fixed(10), Seed: 1, Faults: inj})
	// Fixed period 10, doubled to 20 by the injector's skew: 240 all-miss
	// references raise exactly 12 samples.
	thrash(s, 240)
	if got := s.RaisedCount(); got != 12 {
		t.Fatalf("raised %d samples, want 12", got)
	}
	if s.FaultDropped != 2 {
		t.Errorf("FaultDropped = %d, want 2", s.FaultDropped)
	}
	if s.FaultTruncated != 3 {
		t.Errorf("FaultTruncated = %d, want 3", s.FaultTruncated)
	}
	if s.FaultCorrupted != 1 {
		t.Errorf("FaultCorrupted = %d, want 1", s.FaultCorrupted)
	}
	wantKept := s.RaisedCount() - s.FaultDropped - s.FaultTruncated
	if uint64(len(s.Samples)) != wantKept {
		t.Errorf("kept %d samples, want %d", len(s.Samples), wantKept)
	}
	if s.SampleCount() != wantKept {
		t.Errorf("SampleCount = %d, want %d", s.SampleCount(), wantKept)
	}
}

// TestSamplerFaultPeriodSkew: the scripted injector doubles every period,
// so a fixed-10 sampler raises half the samples of a clean one.
func TestSamplerFaultPeriodSkew(t *testing.T) {
	clean := NewSampler(Config{Geom: mem.L1Default(), Period: Fixed(10), Seed: 1})
	skewed := NewSampler(Config{Geom: mem.L1Default(), Period: Fixed(10), Seed: 1,
		Faults: &scriptedInjector{}})
	const refs = 10 * 40
	thrash(clean, refs)
	thrash(skewed, refs)
	if clean.RaisedCount() != 2*skewed.RaisedCount() {
		t.Errorf("doubled period should halve the samples: clean %d, skewed %d",
			clean.RaisedCount(), skewed.RaisedCount())
	}
}

// TestSamplerFaultDeterminism: two samplers with identical configs and the
// same injector script deliver byte-identical sample streams.
func TestSamplerFaultDeterminism(t *testing.T) {
	mk := func() *Sampler {
		return NewSampler(Config{Geom: mem.L1Default(), Period: Uniform(16), Seed: 7,
			Faults: &scriptedInjector{drop: map[uint64]bool{1: true, 5: true}}})
	}
	a, b := mk(), mk()
	thrash(a, 3000)
	thrash(b, 3000)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}
