package pmu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// ref is the scalar sampler state machine — the reference model of the
// PEBS contract, one reference at a time: it simulates the reference
// against the private L1 and, on every period-th miss event, records a
// sample. The fused block path (RefBlock) must replay it exactly; it is
// kept here as the oracle the tests hold that path to.
func (s *Sampler) ref(r trace.Ref) {
	s.Refs++
	if s.l1.AccessHit(r.Addr) {
		return
	}
	s.Events++
	if s.burst > 0 {
		s.burst--
		s.deliver(r)
		return
	}
	s.next--
	if s.next > 0 {
		return
	}
	s.next = s.drawPeriod()
	if s.cfg.Burst > 1 {
		s.burst = s.cfg.Burst - 1
	}
	s.deliver(r)
}

// FuzzBlockEquivalence drives the scalar oracle and the SoA RefBlock path
// of the sampler with the same randomized reference stream under a
// randomized configuration, delivering the block path at random block
// splits, and requires bit-identical outcomes: the same event/ref counters
// and the same sample subsequence. This is the load-bearing invariant of
// the fused block path (the period-jump walk over cache.BlockMisses must
// replay the exact scalar state machine), so it gets adversarial inputs,
// not just the strided patterns of the unit tests.
func FuzzBlockEquivalence(f *testing.F) {
	f.Add(int64(1), uint(5000), uint(171), uint(1), uint(192), uint(6))
	f.Add(int64(7), uint(20000), uint(13), uint(4), uint(64), uint(0))
	f.Add(int64(42), uint(999), uint(1), uint(8), uint(4096), uint(10))
	f.Add(int64(-3), uint(64), uint(7), uint(2), uint(8), uint(31))
	f.Fuzz(func(t *testing.T, seed int64, n, period, burst, stride, chunkBits uint) {
		n = n%50000 + 1
		period = period%500 + 1
		burst = burst % 9
		maxChunk := 1 << (chunkBits % 13) // 1 .. 4096, crossing block sizes
		rng := rand.New(rand.NewSource(seed))

		// A mix of strided and random traffic: strides drive conflict
		// misses, random addresses drive irregular miss spacing, and the
		// occasional tight reuse keeps the hit path honest.
		refs := make([]trace.Ref, n)
		base := rng.Uint64() % (1 << 30)
		st := uint64(stride%8192 + 1)
		for i := range refs {
			var addr uint64
			switch rng.Intn(3) {
			case 0:
				addr = base + uint64(i)*st
			case 1:
				addr = rng.Uint64() % (1 << 24)
			default:
				addr = base + uint64(rng.Intn(256))
			}
			refs[i] = trace.Ref{IP: uint64(rng.Intn(64)) * 4, Addr: addr, Write: rng.Intn(2) == 1}
		}

		cfg := Config{Geom: mem.L1Default(), Period: Uniform(uint64(period)), Seed: seed, Burst: int(burst)}

		oracle := NewSampler(cfg)
		for _, r := range refs {
			oracle.ref(r)
		}

		blocked := NewSampler(cfg)
		for lo := 0; lo < len(refs); {
			hi := min(lo+1+rng.Intn(maxChunk), len(refs))
			feed(blocked, refs[lo:hi]...)
			lo = hi
		}

		if oracle.Events != blocked.Events || oracle.Refs != blocked.Refs {
			t.Fatalf("block path diverges: events %d vs %d, refs %d vs %d",
				oracle.Events, blocked.Events, oracle.Refs, blocked.Refs)
		}
		if !reflect.DeepEqual(oracle.Samples, blocked.Samples) {
			t.Fatalf("block path: sample sequences diverge (%d vs %d samples)",
				len(oracle.Samples), len(blocked.Samples))
		}
	})
}
