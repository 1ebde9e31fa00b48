package baseline

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func g() mem.Geometry { return mem.MustGeometry(64, 4, 2) }

// thrash drives n rounds over k same-set lines through the sink.
func thrash(sink trace.Sink, geom mem.Geometry, set, k, rounds int) {
	e := trace.NewEmitter(sink)
	for r := 0; r < rounds; r++ {
		for t := 0; t < k; t++ {
			e.Ref(trace.Ref{Addr: geom.Compose(uint64(t+1), set, 0)})
		}
	}
	e.Flush()
}

// feed delivers refs to sink as one block.
func feed(sink trace.Sink, refs ...trace.Ref) {
	var b trace.RefBlock
	b.AppendRefs(refs)
	sink.RefBlock(&b)
}

func TestMSTDetectsThrashing(t *testing.T) {
	m := NewMST(g())
	// 3 lines in a 2-way set: every miss after warmup re-fetches a line
	// that was just evicted.
	thrash(m, m.geom, 1, 3, 50)
	if m.Misses == 0 {
		t.Fatal("no misses")
	}
	if m.ConflictRatio() < 0.8 {
		t.Errorf("MST conflict ratio = %.2f, want ~1 for a thrashing set", m.ConflictRatio())
	}
	if !m.Verdict(0.5) {
		t.Error("MST verdict should be positive")
	}
}

func TestMSTIgnoresStreaming(t *testing.T) {
	m := NewMST(g())
	// Pure streaming: every line touched once, never re-referenced.
	for i := 0; i < 1000; i++ {
		feed(m, trace.Ref{Addr: uint64(i) * 64})
	}
	if m.Conflicts != 0 {
		t.Errorf("MST classified %d streaming misses as conflicts", m.Conflicts)
	}
	if m.Verdict(0.1) {
		t.Error("MST verdict should be negative on streaming")
	}
}

func TestMSTHitsDontCount(t *testing.T) {
	m := NewMST(g())
	feed(m, trace.Ref{Addr: 0})
	for i := 0; i < 10; i++ {
		feed(m, trace.Ref{Addr: 0})
	}
	if m.Misses != 1 || m.Conflicts != 0 {
		t.Errorf("misses=%d conflicts=%d", m.Misses, m.Conflicts)
	}
}

func TestMSTVictimBufferDepthOne(t *testing.T) {
	m := NewMST(g())
	geom := m.geom
	// Evict line A, then evict B, then re-touch A: the table only
	// remembers the most recent victim (B), so A's return is NOT
	// classified — the known depth-1 limitation of the MST approach
	// ("can be used to classify a subset of conflict misses").
	a := geom.Compose(1, 0, 0)
	b := geom.Compose(2, 0, 0)
	c := geom.Compose(3, 0, 0)
	d := geom.Compose(4, 0, 0)
	feed(m, trace.Ref{Addr: a}) // miss (cold)
	feed(m, trace.Ref{Addr: b}) // miss
	feed(m, trace.Ref{Addr: c}) // miss, evicts a -> last = a
	feed(m, trace.Ref{Addr: d}) // miss, evicts b -> last = b
	before := m.Conflicts
	feed(m, trace.Ref{Addr: a}) // miss, but last victim is b, not a
	if m.Conflicts != before {
		t.Error("depth-1 MST should have missed this conflict")
	}
	feed(m, trace.Ref{Addr: c}) // c was evicted by a just now -> classified
	if m.Conflicts != before+1 {
		t.Error("MST should classify the immediate victim's return")
	}
}

func TestDProfDetectsStaticVictim(t *testing.T) {
	d := NewDProf(64)
	for i := 0; i < 1000; i++ {
		d.Observe(5)
	}
	if d.Imbalance() < 32 {
		t.Errorf("imbalance = %.1f, want huge for a single victim set", d.Imbalance())
	}
	if !d.Verdict(4) {
		t.Error("DProf should flag a static victim set")
	}
}

func TestDProfMissesRotatingVictim(t *testing.T) {
	// The paper's criticism: a victim set that rotates (each phase
	// hammers a different set) looks globally balanced.
	d := NewDProf(64)
	for phase := 0; phase < 64; phase++ {
		for i := 0; i < 100; i++ {
			d.Observe(phase)
		}
	}
	if d.Imbalance() > 1.5 {
		t.Errorf("rotating victim imbalance = %.2f, expected near 1", d.Imbalance())
	}
	if d.Verdict(4) {
		t.Error("DProf (global histogram) cannot see the rotating conflict — expected a miss")
	}
	if d.Samples() != 6400 {
		t.Errorf("samples = %d", d.Samples())
	}
}

func TestDProfEmpty(t *testing.T) {
	d := NewDProf(8)
	if d.Imbalance() != 0 || d.Verdict(1) {
		t.Error("empty detector should report no conflict")
	}
}
