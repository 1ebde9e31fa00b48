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

// Ref is the per-reference view a trace.SinkFunc adapts.
func (p *streamPrint) Ref(r trace.Ref) { p.add(r.IP, r.Addr, r.Write) }

// blockPrint consumes the blocks directly.
type blockPrint struct{ streamPrint }

func (s *blockPrint) RefBlock(b *trace.RefBlock) {
	for i, a := range b.Addr {
		s.add(b.IP[i], a, b.Flags[i]&trace.FlagWrite != 0)
	}
}

func newFuncPrint() (trace.Sink, *streamPrint) {
	p := newStreamPrint()
	return trace.SinkFunc(p.Ref), p
}

func newBlockPrint() (trace.Sink, *streamPrint) {
	s := &blockPrint{*newStreamPrint()}
	return s, &s.streamPrint
}

// streamSinks pairs each entry point with each consumer shape a producer
// must serve with the same sequence: make builds a fresh sink with the
// fingerprint it accumulates, run delivers one thread's stream to it.
// Sequential entries deliver only the threads=1 stream.
var streamSinks = []struct {
	name       string
	make       func() (trace.Sink, *streamPrint)
	run        func(p *Program, tid, threads int, sink trace.Sink)
	sequential bool
}{
	{"SinkFunc", newFuncPrint, (*Program).RunThread, false},
	{"BlockSink", newBlockPrint, (*Program).RunThread, false},
	{"PipelinedSinkFunc", newFuncPrint, (*Program).RunThreadPipelined, false},
	{"PipelinedBlockSink", newBlockPrint, (*Program).RunThreadPipelined, false},
	{"AddressesSinkFunc", newFuncPrint, runAddresses, true},
	{"AddressesBlockSink", newBlockPrint, runAddresses, true},
}

// runAddresses delivers the address-only sequential stream.
func runAddresses(p *Program, _, _ int, sink trace.Sink) { p.RunAddressesPipelined(sink) }

// streamPrints runs every case-study variant (default scale) and every
// Rodinia kernel at threads=1 and, unless sequential, per tid at threads=2
// through run into sinks built by mk, one freshly constructed program per
// run so data-dependent kernels start from their initial state. It returns
// one "name threads/tid count hash" line per stream, in a fixed order.
func streamPrints(t *testing.T, mk func() (trace.Sink, *streamPrint),
	runThread func(p *Program, tid, threads int, sink trace.Sink), sequential bool) []string {
	t.Helper()
	type run struct{ threads, tid int }
	runs := []run{{1, 0}, {2, 0}, {2, 1}}
	if sequential {
		runs = runs[:1]
	}
	var lines []string
	emit := func(name string, p *Program, r run) {
		sink, fp := mk()
		runThread(p, r.tid, r.threads, sink)
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
// in testdata/streams.golden through a per-reference SinkFunc and a block
// sink alike, from RunThread, RunThreadPipelined and (at threads=1, the
// golden's "1/0" rows) RunAddressesPipelined alike. Any change to a
// kernel's emitted sequence, to how an entry stages and delivers it, or a
// stream that depends on whether the kernel computes its values, shows
// here. Regenerate with
// "go test ./internal/workloads -run TestStreamFingerprints -args -update"
// only when a kernel's stream is meant to change.
func TestStreamFingerprints(t *testing.T) {
	if *update {
		writeGoldenLines(t, streamPrints(t, streamSinks[0].make, streamSinks[0].run, false))
	}
	all := readGoldenLines(t)
	var seq []string
	for _, l := range all {
		if strings.Fields(l)[1] == "1/0" {
			seq = append(seq, l)
		}
	}
	for _, s := range streamSinks {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			want := all
			if s.sequential {
				want = seq
			}
			got := streamPrints(t, s.make, s.run, s.sequential)
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
