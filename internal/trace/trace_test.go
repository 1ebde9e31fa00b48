package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRefString(t *testing.T) {
	r := Ref{IP: 0x10, Addr: 0x20}
	if got := r.String(); !strings.HasPrefix(got, "R ") {
		t.Errorf("read ref string = %q", got)
	}
	r.Write = true
	if got := r.String(); !strings.HasPrefix(got, "W ") {
		t.Errorf("write ref string = %q", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.RefBlock(blockOf(Ref{}, Ref{Write: true}, Ref{}))
	if c.Reads != 2 || c.Writes != 1 || c.Total() != 3 {
		t.Errorf("counter = %+v", c)
	}
}

func TestTee(t *testing.T) {
	var a, b Counter
	s := Tee(&a, nil, &b)
	s.RefBlock(blockOf(Ref{}, Ref{Write: true}))
	if a.Total() != 2 || b.Total() != 2 {
		t.Errorf("tee fanout failed: a=%d b=%d", a.Total(), b.Total())
	}
}

func TestTeeSingleSinkShortCircuit(t *testing.T) {
	var c Counter
	if s := Tee(nil, &c); s != Sink(&c) {
		t.Error("Tee with one live sink should return it directly")
	}
}

// TestReadAllBadMagic: the framed reader is the only trace reader, so the
// retired flat (CCT1) and delta (CCTZ) formats, like any other foreign
// bytes, must be refused with the typed magic error before a single
// reference is delivered.
func TestReadAllBadMagic(t *testing.T) {
	flat := append([]byte("CCT1"), make([]byte, 2*17)...)
	for name, data := range map[string][]byte{
		"CCT1": flat,
		"CCTZ": []byte("CCTZ\x01\x02\x80\x01\x00\x04\x08"),
		"junk": []byte("NOPE............."),
	} {
		var c Counter
		n, err := ReadAllFramed(bytes.NewReader(data), &c)
		if !errors.Is(err, ErrBadFrameMagic) || n != 0 || c.Total() != 0 {
			t.Errorf("%s: n=%d delivered=%d err=%v, want ErrBadFrameMagic and nothing delivered", name, n, c.Total(), err)
		}
	}
	if !strings.Contains(ErrBadFrameMagic.Error(), "framed (CCTB)") {
		t.Errorf("ErrBadFrameMagic = %q, want it to name the framed format", ErrBadFrameMagic)
	}
}

func TestThreadedRecorder(t *testing.T) {
	tr := NewThreadedRecorder(2)
	tr.Thread(0).RefBlock(blockOf(Ref{Addr: 1}))
	tr.Thread(1).RefBlock(blockOf(Ref{Addr: 2}))
	tr.Thread(0).RefBlock(blockOf(Ref{Addr: 3}))
	if tr.Total() != 3 {
		t.Errorf("Total = %d, want 3", tr.Total())
	}
	if len(tr.Streams[0]) != 2 || len(tr.Streams[1]) != 1 || tr.Streams[0][1].Addr != 3 {
		t.Errorf("per-thread streams: %v, %v", tr.Streams[0], tr.Streams[1])
	}
}

// BenchmarkSinkDispatch measures the cost of one block delivery through a
// Tee: the per-block dispatch overhead every Sink stage adds.
func BenchmarkSinkDispatch(b *testing.B) {
	var c Counter
	s := Tee(&c, Discard)
	blk := blockOf(Ref{IP: 1, Addr: 2})
	for i := 0; i < b.N; i++ {
		s.RefBlock(blk)
	}
}
