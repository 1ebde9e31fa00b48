package workloads

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/streams.golden")

const streamsGolden = "testdata/streams.golden"

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// streamPrint is the identity of one reference stream: its length and the
// FNV-1a-64 hash of every reference's little-endian IP, little-endian Addr
// and write byte (0 or 1), in stream order.
type streamPrint struct {
	count uint64
	hash  uint64
}

func newStreamPrint() *streamPrint { return &streamPrint{hash: fnvOffset64} }

func (p *streamPrint) add(ip, addr uint64, write bool) {
	h := p.hash
	for s := 0; s < 64; s += 8 {
		h = (h ^ (ip >> s & 0xff)) * fnvPrime64
	}
	for s := 0; s < 64; s += 8 {
		h = (h ^ (addr >> s & 0xff)) * fnvPrime64
	}
	var w uint64
	if write {
		w = 1
	}
	p.hash = (h ^ w) * fnvPrime64
	p.count++
}

// Ref makes a streamPrint a plain trace.Sink.
func (p *streamPrint) Ref(r trace.Ref) { p.add(r.IP, r.Addr, r.Write) }

// batchPrint and blockPrint add the batch and block consumer shapes.
type (
	batchPrint struct{ streamPrint }
	blockPrint struct{ streamPrint }
)

func (s *batchPrint) RefBatch(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *blockPrint) RefBlock(b *trace.RefBlock) {
	for i, a := range b.Addr {
		s.add(b.IP[i], a, b.Flags[i]&trace.FlagWrite != 0)
	}
}

// streamSinks builds a fresh sink of each consumer shape a producer must
// serve with the same sequence, with the fingerprint it accumulates.
var streamSinks = []struct {
	name string
	make func() (trace.Sink, *streamPrint)
}{
	{"SinkFunc", func() (trace.Sink, *streamPrint) { p := newStreamPrint(); return trace.SinkFunc(p.Ref), p }},
	{"BatchSink", func() (trace.Sink, *streamPrint) { s := &batchPrint{*newStreamPrint()}; return s, &s.streamPrint }},
	{"BlockSink", func() (trace.Sink, *streamPrint) { s := &blockPrint{*newStreamPrint()}; return s, &s.streamPrint }},
}

// streamPrints runs every case-study variant (default scale) and every
// Rodinia kernel at threads=1 and, per tid, at threads=2 into sinks built by
// mk, one freshly constructed program per run so data-dependent kernels
// start from their initial state. It returns one "name threads/tid count
// hash" line per stream, in a fixed order.
func streamPrints(t *testing.T, mk func() (trace.Sink, *streamPrint)) []string {
	t.Helper()
	type run struct{ threads, tid int }
	runs := []run{{1, 0}, {2, 0}, {2, 1}}
	var lines []string
	emit := func(name string, p *Program, r run) {
		sink, fp := mk()
		p.RunThread(r.tid, r.threads, sink)
		lines = append(lines, fmt.Sprintf("%s %d/%d %d %016x", name, r.threads, r.tid, fp.count, fp.hash))
	}
	for _, name := range Names() {
		for _, r := range runs {
			for _, optimized := range []bool{false, true} {
				cs, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				p, variant := cs.Original, "original"
				if optimized {
					p, variant = cs.Optimized, "optimized"
				}
				emit(name+"/"+variant, p, r)
			}
		}
	}
	for i := range RodiniaSuite() {
		for _, r := range runs {
			p := RodiniaSuite()[i]
			emit("rodinia/"+p.Name, p, r)
		}
	}
	return lines
}

// TestStreamFingerprints pins every workload's reference stream: the count
// and FNV-1a-64 of each (program, threads, tid) stream must match the table
// in testdata/streams.golden through a plain SinkFunc, a batch-only sink and
// a block sink alike. Any change to a kernel's emitted sequence, or to how
// RunThread stages and delivers it, shows here. Regenerate with
// "go test ./internal/workloads -run TestStreamFingerprints -args -update"
// only when a kernel's stream is meant to change.
func TestStreamFingerprints(t *testing.T) {
	if *update {
		writeGoldenLines(t, streamPrints(t, streamSinks[0].make))
	}
	want := readGoldenLines(t)
	for _, s := range streamSinks {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			got := streamPrints(t, s.make)
			if len(got) != len(want) {
				t.Fatalf("%d streams, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("stream %d:\n got  %s\n want %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestStreamPrintIsFNV1a checks the inline hash against hash/fnv over the
// documented byte layout, so the golden table means what it says.
func TestStreamPrintIsFNV1a(t *testing.T) {
	refs := []trace.Ref{{IP: 0x401000, Addr: 0x7f0000001040}, {IP: 1<<63 | 5, Addr: 0xdeadbeef, Write: true}}
	fp := newStreamPrint()
	h := fnv.New64a()
	for _, r := range refs {
		fp.add(r.IP, r.Addr, r.Write)
		var buf [17]byte
		binary.LittleEndian.PutUint64(buf[0:8], r.IP)
		binary.LittleEndian.PutUint64(buf[8:16], r.Addr)
		if r.Write {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	if fp.hash != h.Sum64() || fp.count != uint64(len(refs)) {
		t.Fatalf("fingerprint %016x/%d, hash/fnv %016x/%d", fp.hash, fp.count, h.Sum64(), len(refs))
	}
}

func readGoldenLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(streamsGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

func writeGoldenLines(t *testing.T, lines []string) {
	t.Helper()
	body := "# program threads/tid refs fnv1a64(ip, addr, write)\n" + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(streamsGolden, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
