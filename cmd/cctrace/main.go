// Command cctrace inspects and converts CCProf reference traces.
//
// Usage:
//
//	cctrace -stats FILE                     # summarize a framed (CCTB) trace
//	cctrace -dump FILE                      # print decoded references as text
//	cctrace -in FILE -out FILE              # re-frame a trace (see -frame)
//	cctrace -jsonl -in S.jsonl -out S.cctb  # ingest perf-script style JSONL
//	cctrace -head N -stats FILE             # only the first N references
//
// Binary traces are always in the framed format, the streaming profiler's
// native input: frames are independently decodable, so ccprof's trace mode
// can shard the file at frame boundaries and resume a partially consumed
// trace from a checkpoint.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mem"
	"repro/internal/trace"
)

func main() {
	var (
		statsIn = flag.String("stats", "", "print summary statistics of this trace")
		dumpIn  = flag.String("dump", "", "print this trace's decoded references as text")
		in      = flag.String("in", "", "convert: input trace")
		out     = flag.String("out", "", "convert: output trace (framed CCTB format)")
		frame   = flag.Int("frame", 0, "convert: references per output frame (0 = the default block size)")
		jsonl   = flag.Bool("jsonl", false, "input is perf-script style JSONL, one record per line")
		head    = flag.Uint64("head", 0, "process only the first N references (0 = all)")
	)
	flag.Parse()

	switch {
	case *statsIn != "":
		if err := printStats(os.Stdout, *statsIn, *jsonl, *head); err != nil {
			fatal(err)
		}
	case *dumpIn != "":
		if err := dump(os.Stdout, *dumpIn, *jsonl, *head); err != nil {
			fatal(err)
		}
	case *in != "" && *out != "":
		if err := convert(os.Stdout, *in, *out, *jsonl, *frame, *head); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// readTrace feeds path's references into sink, decoding JSONL when asked and
// the framed binary format otherwise. A head above 0 stops decoding at the
// record or frame holding the head-th reference and delivers only the
// first head. It returns the count delivered and, for JSONL, the number of
// records read but skipped for lacking an address.
func readTrace(path string, jsonl bool, head uint64, sink trace.Sink) (n int, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if jsonl {
		return trace.ReadJSONL(f, sink, head)
	}
	tr, err := trace.NewTraceReader(f)
	if err != nil {
		return 0, 0, err
	}
	for head == 0 || uint64(n) < head {
		blk, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, 0, err
		}
		if left := head - uint64(n); head > 0 && uint64(blk.Len()) > left {
			blk = &trace.RefBlock{IP: blk.IP[:left], Addr: blk.Addr[:left], Flags: blk.Flags[:left]}
		}
		n += blk.Len()
		sink.RefBlock(blk)
	}
	return n, 0, nil
}

func printStats(w io.Writer, path string, jsonl bool, head uint64) error {
	geom := mem.L1Default()
	var count trace.Counter
	ips := map[uint64]uint64{}
	sets := make([]uint64, geom.Sets)
	var minAddr, maxAddr uint64 = ^uint64(0), 0

	n, skipped, err := readTrace(path, jsonl, head, trace.Tee(&count, trace.SinkFunc(func(r trace.Ref) {
		ips[r.IP]++
		sets[geom.Set(r.Addr)]++
		if r.Addr < minAddr {
			minAddr = r.Addr
		}
		if r.Addr > maxAddr {
			maxAddr = r.Addr
		}
	})))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "references: %d (%d reads, %d writes)\n", n, count.Reads, count.Writes)
	if skipped > 0 {
		fmt.Fprintf(w, "skipped: %d records without an address\n", skipped)
	}
	if count.Total() == 0 {
		return nil
	}
	fmt.Fprintf(w, "distinct IPs: %d\n", len(ips))
	fmt.Fprintf(w, "address range: [%#x, %#x] (%d bytes)\n", minAddr, maxAddr, maxAddr-minAddr+1)
	var used int
	var maxSet uint64
	for _, c := range sets {
		if c > 0 {
			used++
		}
		if c > maxSet {
			maxSet = c
		}
	}
	fmt.Fprintf(w, "L1 sets touched (64-set view): %d/64, busiest share %.1f%%\n",
		used, 100*float64(maxSet)/float64(count.Total()))
	return nil
}

// dump prints one line per decoded reference in a fixed, diff-friendly
// layout — the format the golden tests pin.
func dump(w io.Writer, path string, jsonl bool, head uint64) error {
	i := 0
	n, skipped, err := readTrace(path, jsonl, head, trace.SinkFunc(func(r trace.Ref) {
		op := "read"
		if r.Write {
			op = "write"
		}
		fmt.Fprintf(w, "%8d  ip=%#012x  addr=%#012x  %s\n", i, r.IP, r.Addr, op)
		i++
	}))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "references: %d\n", n)
	if skipped > 0 {
		fmt.Fprintf(w, "skipped: %d records without an address\n", skipped)
	}
	return nil
}

// convert re-frames inPath into outPath. outPath appears only once the
// whole trace is written: a failed read leaves nothing behind.
func convert(w io.Writer, inPath, outPath string, jsonl bool, frame int, head uint64) error {
	out, err := trace.CreateTraceFile(outPath, frame)
	if err != nil {
		return err
	}
	n, skipped, err := readTrace(inPath, jsonl, head, out)
	if err != nil {
		out.Abort()
		return err
	}
	if err := out.Commit(); err != nil {
		return err
	}
	st, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "converted %d references -> %s (%d bytes, framed)\n", n, outPath, st.Size())
	if skipped > 0 {
		fmt.Fprintf(w, "skipped: %d records without an address\n", skipped)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cctrace:", err)
	os.Exit(1)
}
