package pmu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/rcd"
	"repro/internal/stats"
	"repro/internal/trace"
)

func g() mem.Geometry { return mem.MustGeometry(64, 4, 2) } // 8-line L1

// missStream feeds n distinct lines (all cold misses) through s.
func missStream(s *Sampler, n int) {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{IP: uint64(i%7) + 100, Addr: uint64(i) * 64}
	}
	emitAll(s, refs)
}

func TestFixedPeriodSamplesEveryNth(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Fixed(10), Seed: 1})
	missStream(s, 100) // 100 miss events
	if s.Events != 100 {
		t.Fatalf("events = %d, want 100", s.Events)
	}
	if len(s.Samples) != 10 {
		t.Errorf("samples = %d, want 10", len(s.Samples))
	}
	// The k-th sample is the (10k)-th miss: addr of ref index 10k-1.
	for k, sm := range s.Samples {
		want := uint64(10*(k+1)-1) * 64
		if sm.Addr != want {
			t.Errorf("sample %d addr = %#x, want %#x", k, sm.Addr, want)
		}
	}
	if s.SampleCount() != 10 {
		t.Errorf("SampleCount = %d, want 10", s.SampleCount())
	}
}

func TestHitsDoNotCountAsEvents(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Fixed(1), Seed: 1})
	feed(s, trace.Ref{Addr: 0}) // miss
	for i := 0; i < 5; i++ {
		feed(s, trace.Ref{Addr: 0}) // hits
	}
	if s.Events != 1 {
		t.Errorf("events = %d, want 1 (hits must not trigger)", s.Events)
	}
	if s.Refs != 6 {
		t.Errorf("refs = %d, want 6", s.Refs)
	}
	if s.MissRatio() != 1.0/6 {
		t.Errorf("miss ratio = %g", s.MissRatio())
	}
}

func TestSamplesCarryIPAndAddr(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Fixed(1), Seed: 1})
	feed(s, trace.Ref{IP: 0x401000, Addr: 0xbeef00})
	if len(s.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(s.Samples))
	}
	if s.Samples[0].IP != 0x401000 || s.Samples[0].Addr != 0xbeef00 {
		t.Errorf("sample = %+v", s.Samples[0])
	}
}

func TestHandlerReceivesSamples(t *testing.T) {
	var got []Sample
	s := NewSampler(Config{Geom: g(), Period: Fixed(2), Seed: 1})
	s.Handler = func(sm Sample) { got = append(got, sm) }
	missStream(s, 10)
	if len(got) != 5 {
		t.Errorf("handler received %d samples, want 5", len(got))
	}
	if len(s.Samples) != 0 {
		t.Error("buffered samples should be empty when Handler is set")
	}
	if s.SampleCount() != 5 {
		t.Errorf("SampleCount = %d, want 5", s.SampleCount())
	}
}

func TestUniformPeriodBounds(t *testing.T) {
	rng := stats.NewRand(2)
	u := Uniform(100)
	for i := 0; i < 1000; i++ {
		p := u.NextPeriod(rng)
		if p < 50 || p > 150 {
			t.Fatalf("uniform(100) drew %d, want [50,150]", p)
		}
	}
}

func TestUniformPeriodMean(t *testing.T) {
	rng := stats.NewRand(3)
	u := Uniform(1212)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(u.NextPeriod(rng))
	}
	got := sum / n
	if math.Abs(got-1212) > 25 {
		t.Errorf("empirical mean = %g, want ~1212", got)
	}
}

func TestGeometricPeriodMean(t *testing.T) {
	rng := stats.NewRand(4)
	ge := Geometric(200)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		p := ge.NextPeriod(rng)
		if p < 1 {
			t.Fatal("geometric drew 0")
		}
		sum += float64(p)
	}
	got := sum / n
	if math.Abs(got-200) > 10 {
		t.Errorf("empirical mean = %g, want ~200", got)
	}
}

func TestDegeneratePeriods(t *testing.T) {
	rng := stats.NewRand(5)
	if Fixed(0).NextPeriod(rng) != 1 {
		t.Error("Fixed(0) should clamp to 1")
	}
	if Uniform(1).NextPeriod(rng) != 1 {
		t.Error("Uniform(1) should clamp to 1")
	}
	if Geometric(1).NextPeriod(rng) != 1 {
		t.Error("Geometric(1) should clamp to 1")
	}
}

func TestPeriodStringsAndMeans(t *testing.T) {
	cases := []struct {
		d    PeriodDist
		mean float64
		sub  string
	}{
		{Fixed(10), 10, "fixed"},
		{Uniform(20), 20, "uniform"},
		{Geometric(30), 30, "geometric"},
	}
	for _, c := range cases {
		if c.d.Mean() != c.mean {
			t.Errorf("%v Mean = %g, want %g", c.d, c.d.Mean(), c.mean)
		}
		if !strings.Contains(c.d.String(), c.sub) {
			t.Errorf("String %q missing %q", c.d.String(), c.sub)
		}
	}
}

func TestDefaultPeriodConfig(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Seed: 1})
	if s.cfg.Period.Mean() != DefaultPeriod {
		t.Errorf("default period mean = %g, want %d", s.cfg.Period.Mean(), DefaultPeriod)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	run := func() []Sample {
		s := NewSampler(Config{Geom: g(), Period: Uniform(7), Seed: 42})
		missStream(s, 500)
		return s.Samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic sample counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Statistical property: sampling rate approximates events/mean-period.
func TestSamplingRateApproximation(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Uniform(50), Seed: 9})
	missStream(s, 100000)
	want := float64(s.Events) / 50
	got := float64(len(s.Samples))
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("sample count = %g, want ~%g", got, want)
	}
}

// The lossy sampler must never fabricate information: every sample's
// (IP, Addr) pair must appear in the underlying stream.
func TestSamplesAreSubsequence(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Uniform(3), Seed: 11})
	var sent []trace.Ref
	for i := 0; i < 1000; i++ {
		sent = append(sent, trace.Ref{IP: uint64(i % 13), Addr: uint64(i*64) % 8192})
	}
	emitAll(s, sent)
	valid := map[Sample]bool{}
	for _, r := range sent {
		valid[Sample{IP: r.IP, Addr: r.Addr}] = true
	}
	for _, sm := range s.Samples {
		if !valid[sm] {
			t.Fatalf("sample %+v never appeared in the stream", sm)
		}
	}
}

// BenchmarkSamplerRef measures the sampler's cost per reference on the
// production path: one Emitter.Ref per access, block delivery behind it.
func BenchmarkSamplerRef(b *testing.B) {
	s := NewSampler(Config{Geom: mem.L1Default(), Period: Uniform(DefaultPeriod), Seed: 1})
	e := trace.NewEmitter(s)
	for i := 0; i < b.N; i++ {
		e.Ref(trace.Ref{IP: 1, Addr: uint64(i) * 64})
	}
	e.Flush()
}

func TestBurstSampling(t *testing.T) {
	s := NewSampler(Config{Geom: g(), Period: Fixed(10), Seed: 1, Burst: 4})
	missStream(s, 100)
	// Every 10th event starts a burst of 4: events 10-13, 20-23 (counting
	// from the period reset after each burst start)... with Fixed(10) the
	// countdown restarts at the burst trigger, so bursts begin at events
	// 10, 20, 30, ... as long as bursts don't overlap the next trigger.
	if s.SampleCount() == 0 {
		t.Fatal("no samples")
	}
	// Samples per trigger must be the burst length.
	if got := s.SampleCount() % 4; got != 0 {
		t.Errorf("sample count %d not a multiple of the burst length", s.SampleCount())
	}
	// Within a burst, samples are consecutive miss events: addresses of
	// the miss stream are consecutive multiples of 64.
	for i := 0; i+3 < len(s.Samples); i += 4 {
		for k := 1; k < 4; k++ {
			if s.Samples[i+k].Addr != s.Samples[i+k-1].Addr+64 {
				t.Fatalf("burst %d not consecutive: %#x then %#x",
					i/4, s.Samples[i+k-1].Addr, s.Samples[i+k].Addr)
			}
		}
	}
}

func TestBurstDisabledByDefault(t *testing.T) {
	a := NewSampler(Config{Geom: g(), Period: Fixed(10), Seed: 1})
	b := NewSampler(Config{Geom: g(), Period: Fixed(10), Seed: 1, Burst: 1})
	missStream(a, 200)
	missStream(b, 200)
	if a.SampleCount() != b.SampleCount() {
		t.Errorf("Burst=1 should equal default: %d vs %d", a.SampleCount(), b.SampleCount())
	}
}

// Within-burst distances are exact miss distances, so bursty sampling sees
// the true RCD of a conflict pattern even at a long period.
func TestBurstCapturesExactRCD(t *testing.T) {
	geom := mem.L1Default()
	conflictRing := func(s *Sampler) {
		// 12 lines in set 0: every miss, consecutive misses all in set 0.
		refs := make([]trace.Ref, 60000)
		for i := range refs {
			refs[i] = trace.Ref{IP: 1, Addr: uint64(i%12) * 4096}
		}
		emitAll(s, refs)
	}
	burst := NewSampler(Config{Geom: geom, Period: Uniform(1212), Seed: 2, Burst: 16})
	conflictRing(burst)
	tr := rcdTracker(geom, burst.Samples)
	if cf := tr.ContributionFactor(8); cf < 0.8 {
		t.Errorf("bursty cf = %.2f, want high (within-burst RCD=1)", cf)
	}
}

func rcdTracker(geom mem.Geometry, samples []Sample) *rcd.Tracker {
	tr := rcd.New(geom.Sets)
	for _, sm := range samples {
		tr.Observe(geom.Set(sm.Addr))
	}
	return tr
}
