package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// encodeFramed serializes refs with the given frame size, delivering them
// one reference at a time through an Emitter, and returns the bytes.
func encodeFramed(t testing.TB, refs []Ref, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, size)
	e := NewEmitter(w)
	for _, r := range refs {
		e.Ref(r)
	}
	e.Flush()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decodeFramed replays a framed trace into a []Ref.
func decodeFramed(t testing.TB, data []byte) []Ref {
	t.Helper()
	var out []Ref
	n, err := ReadAllFramed(bytes.NewReader(data), SinkFunc(func(r Ref) { out = append(out, r) }))
	if err != nil {
		t.Fatalf("ReadAllFramed: %v", err)
	}
	if n != len(out) {
		t.Fatalf("count mismatch: %d vs %d", n, len(out))
	}
	return out
}

func stridedRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{
			IP:    0x401000 + uint64(i%7)*16,
			Addr:  0x10_0000 + uint64(i)*64,
			Write: i%3 == 0,
		}
	}
	return refs
}

func TestFramedRoundTrip(t *testing.T) {
	f := func(ips, addrs []uint64, writes []bool) bool {
		n := len(ips)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(writes) < n {
			n = len(writes)
		}
		in := make([]Ref, n)
		for i := 0; i < n; i++ {
			in[i] = Ref{IP: ips[i], Addr: addrs[i], Write: writes[i]}
		}
		out := decodeFramed(t, encodeFramed(t, in, 7))
		if len(out) != n {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFramedEmpty(t *testing.T) {
	data := encodeFramed(t, nil, 0)
	if len(data) != frameHeaderBytes {
		t.Errorf("empty trace is %d bytes, want the %d-byte header", len(data), frameHeaderBytes)
	}
	if got := decodeFramed(t, data); len(got) != 0 {
		t.Errorf("empty trace decoded %d refs", len(got))
	}
}

// Frame boundaries are a function of the reference sequence and block size
// alone: delivering the same stream per-ref (through an Emitter), in odd
// 333-ref blocks, or in DefaultBlock-sized blocks must produce
// byte-identical output.
func TestFramedEncodingIndependentOfDelivery(t *testing.T) {
	refs := stridedRefs(1000)
	want := encodeFramed(t, refs, 256)

	for _, n := range []int{333, DefaultBlock} {
		var blocked bytes.Buffer
		w := NewTraceWriter(&blocked, 256)
		feedBlocks(w, refs, n)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blocked.Bytes(), want) {
			t.Errorf("delivery in %d-ref blocks changed the encoding", n)
		}
	}
}

// A realistic kernel trace (one hot IP, strided addresses) must encode far
// below a flat 17-byte record per reference.
func TestCompressionRatioOnStridedTrace(t *testing.T) {
	var refs []Ref
	for i := 0; i < 10000; i++ {
		refs = append(refs, Ref{IP: 0x401000, Addr: 0x10_0000 + uint64(i)*64})
	}
	enc := encodeFramed(t, refs, 0)
	if flat := 4 + 17*len(refs); len(enc)*4 > flat {
		t.Errorf("framed %d bytes vs flat %d; want at least 4x smaller", len(enc), flat)
	}
	// And it round-trips.
	got := decodeFramed(t, enc)
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d mismatch", i)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), -1 << 62} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
	// Small magnitudes map to small codes (the varint-friendliness).
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Error("zigzag code order wrong")
	}
}

func TestFramedPosAndResume(t *testing.T) {
	refs := stridedRefs(1000)
	data := encodeFramed(t, refs, 128)

	// Consume three frames, checkpoint, and resume from the checkpoint:
	// the resumed reader must deliver exactly the remaining suffix.
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	pos := tr.Pos()
	if pos.Frame != 3 || pos.Refs != 3*128 {
		t.Fatalf("pos after 3 frames = %+v", pos)
	}

	// The checkpoint must survive a JSON round trip (parsim persistence).
	js, err := json.Marshal(pos)
	if err != nil {
		t.Fatal(err)
	}
	var back StreamPos
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back != pos {
		t.Fatalf("StreamPos JSON round trip: %+v vs %+v", back, pos)
	}

	rt, err := ResumeTraceReader(bytes.NewReader(data), back)
	if err != nil {
		t.Fatal(err)
	}
	var rest []Ref
	n, err := rt.Replay(SinkFunc(func(r Ref) { rest = append(rest, r) }))
	if err != nil {
		t.Fatal(err)
	}
	want := refs[3*128:]
	if n != len(want) || len(rest) != len(want) {
		t.Fatalf("resumed %d refs, want %d", len(rest), len(want))
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("resumed ref %d mismatch", i)
		}
	}

	if _, err := ResumeTraceReader(bytes.NewReader(data), StreamPos{Offset: 3}); err == nil {
		t.Error("resume inside the header should error")
	}
}

func TestFramedScanIndex(t *testing.T) {
	refs := stridedRefs(1000) // 8 frames of 128 refs
	data := encodeFramed(t, refs, 128)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	index, err := tr.ScanIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries at frames 0, 3, 6, and end-of-trace (frame 8).
	if len(index) != 4 {
		t.Fatalf("index has %d boundaries: %+v", len(index), index)
	}
	if index[0].Frame != 0 || index[1].Frame != 3 || index[2].Frame != 6 || index[3].Frame != 8 {
		t.Fatalf("unexpected boundary frames: %+v", index)
	}
	if index[3].Refs != 1000 {
		t.Fatalf("end position has %d refs, want 1000", index[3].Refs)
	}

	// Each segment, resumed independently, must reproduce its slice of the
	// stream; the concatenation is the whole trace.
	var all []Ref
	for i := 0; i+1 < len(index); i++ {
		rt, err := ResumeTraceReader(bytes.NewReader(data), index[i])
		if err != nil {
			t.Fatal(err)
		}
		stop := index[i+1].Frame
		for rt.Pos().Frame < stop {
			blk, err := rt.Next()
			if err != nil {
				t.Fatal(err)
			}
			all = blk.AppendTo(all)
		}
	}
	if len(all) != len(refs) {
		t.Fatalf("segments cover %d refs, want %d", len(all), len(refs))
	}
	for i := range refs {
		if all[i] != refs[i] {
			t.Fatalf("segment-covered ref %d mismatch", i)
		}
	}
}

func TestFramedRejectsMalformed(t *testing.T) {
	valid := encodeFramed(t, stridedRefs(300), 128)

	t.Run("bad magic", func(t *testing.T) {
		corrupt := append([]byte("CCTX"), valid[4:]...)
		if _, err := NewTraceReader(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFrameMagic) {
			t.Errorf("err = %v, want ErrBadFrameMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		corrupt := append([]byte(nil), valid...)
		corrupt[4] = 99
		if _, err := NewTraceReader(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFrameVersion) {
			t.Errorf("err = %v, want ErrBadFrameVersion", err)
		}
	})
	t.Run("short header", func(t *testing.T) {
		if _, err := NewTraceReader(bytes.NewReader(valid[:7])); err == nil {
			t.Error("truncated file header should error")
		}
	})
	t.Run("truncated frame header", func(t *testing.T) {
		if _, err := ReadAllFramed(bytes.NewReader(valid[:frameHeaderBytes+5]), Discard); err == nil {
			t.Error("truncated frame header should error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, err := ReadAllFramed(bytes.NewReader(valid[:len(valid)-3]), Discard)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		corrupt := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(corrupt[frameHeaderBytes+4:], 0)
		if _, err := ReadAllFramed(bytes.NewReader(corrupt), Discard); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("absurd count", func(t *testing.T) {
		corrupt := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(corrupt[frameHeaderBytes+4:], maxFrameRefs+1)
		if _, err := ReadAllFramed(bytes.NewReader(corrupt), Discard); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("payload out of bounds for count", func(t *testing.T) {
		// Claim 1000 refs in a payload far too small to hold them.
		corrupt := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(corrupt[frameHeaderBytes+4:], 1000)
		if _, err := ReadAllFramed(bytes.NewReader(corrupt), Discard); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("err = %v, want ErrCorruptFrame", err)
		}
	})
	t.Run("trailing payload bytes", func(t *testing.T) {
		// Shrink the declared count by one: the payload now has leftover
		// bytes after the declared references decode.
		corrupt := append([]byte(nil), valid...)
		count := binary.LittleEndian.Uint32(corrupt[frameHeaderBytes+4:])
		binary.LittleEndian.PutUint32(corrupt[frameHeaderBytes+4:], count-1)
		if _, err := ReadAllFramed(bytes.NewReader(corrupt), Discard); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("err = %v, want ErrCorruptFrame", err)
		}
	})
}

// The reader reuses one block and one payload buffer: decoding a trace 8x
// longer must cost exactly the same allocations (reader setup plus
// first-frame buffer growth), i.e. the per-frame steady-state cost is zero.
func TestFramedReaderSteadyStateAllocs(t *testing.T) {
	decode := func(data []byte) float64 {
		r := bytes.NewReader(data)
		return testing.AllocsPerRun(5, func() {
			r.Seek(0, io.SeekStart)
			tr, err := NewTraceReader(r)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := tr.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short := decode(encodeFramed(t, stridedRefs(DefaultBlock*2), 0))
	long := decode(encodeFramed(t, stridedRefs(DefaultBlock*16), 0))
	if long > short {
		t.Errorf("decoding 16 frames cost %.0f allocs vs %.0f for 2; per-frame state is not being reused", long, short)
	}
}

// FuzzTraceRoundTrip hardens the framed codec: whatever bytes parse must
// decode → re-encode → decode to the identical reference stream with
// bit-identical re-encoded bytes, and malformed input — the retired flat
// (CCT1) and delta (CCTZ) formats included — must be rejected with an
// error, never a panic.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(encodeFramed(f, stridedRefs(10), 4), 4)
	f.Add(encodeFramed(f, stridedRefs(300), 128), 128)
	f.Add(encodeFramed(f, nil, 0), 0)
	f.Add([]byte("CCTB"), 1)
	f.Add([]byte("CCTB\x01\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\x01\x00\x00\x00"), 2)
	f.Add([]byte{}, 3)
	// Legacy seeds: two references {IP 1, Addr 64, read} and {IP 2,
	// Addr 128, write} as 17-byte CCT1 records and as CCTZ deltas, plus
	// the bare and truncated headers.
	cct1 := []byte("CCT1")
	cct1 = binary.LittleEndian.AppendUint64(cct1, 1)
	cct1 = binary.LittleEndian.AppendUint64(cct1, 64)
	cct1 = append(cct1, 0)
	cct1 = binary.LittleEndian.AppendUint64(cct1, 2)
	cct1 = binary.LittleEndian.AppendUint64(cct1, 128)
	cct1 = append(cct1, 1)
	f.Add(cct1, 5)
	f.Add([]byte("CCTZ\x00\x02\x80\x01\x01\x02\x80\x01"), 6)
	f.Add([]byte("CCT1"), 7)
	f.Add([]byte("CCTZ\x01\x02"), 8)

	f.Fuzz(func(t *testing.T, data []byte, size int) {
		size %= 4096
		var first []Ref
		if _, err := ReadAllFramed(bytes.NewReader(data), SinkFunc(func(r Ref) { first = append(first, r) })); err != nil {
			return
		}
		// Re-encode with a fuzzed frame size and decode again: the stream
		// must survive regardless of framing.
		enc1 := encodeFramed(t, first, size)
		second := decodeFramed(t, enc1)
		if len(second) != len(first) {
			t.Fatalf("round trip changed count: %d vs %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("round trip changed ref %d", i)
			}
		}
		// Encoding is canonical: re-encoding the decoded stream at the same
		// frame size reproduces the bytes exactly.
		enc2 := encodeFramed(t, second, size)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("re-encoding is not bit-identical")
		}
	})
}

func TestJSONLDecode(t *testing.T) {
	input := `{"ip":"0x401000","addr":"0x7f0000001000","op":"load"}
{"pc":4198416,"address":"0x7f0000001040","type":"mem-store"}

{"comment":"no address here, skipped"}
{"ip":"0x401020","data_addr":"0x7f0000001080","event":"cpu/mem-loads/P"}
{"addr":"128","op":"WRITE"}`
	var got []Ref
	refs, skipped, err := ReadJSONL(bytes.NewReader([]byte(input)), SinkFunc(func(r Ref) { got = append(got, r) }), 0)
	if err != nil {
		t.Fatal(err)
	}
	if refs != 4 || skipped != 1 {
		t.Fatalf("refs=%d skipped=%d, want 4 and 1", refs, skipped)
	}
	want := []Ref{
		{IP: 0x401000, Addr: 0x7f0000001000},
		{IP: 4198416, Addr: 0x7f0000001040, Write: true},
		{IP: 0x401020, Addr: 0x7f0000001080},
		{Addr: 128, Write: true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLRejectsNonJSON(t *testing.T) {
	input := "{\"ip\":1,\"addr\":2}\nthis is not json\n"
	var rec Recorder
	refs, _, err := ReadJSONL(bytes.NewReader([]byte(input)), &rec, 0)
	if err == nil {
		t.Error("non-JSON line should error")
	}
	// The reference decoded before the bad line still reaches the sink.
	if refs != 1 || rec.Len() != 1 || rec.Refs[0] != (Ref{IP: 1, Addr: 2}) {
		t.Errorf("before the bad line: refs=%d delivered=%v, want the one good reference", refs, rec.Refs)
	}
	if _, _, err := ReadJSONL(bytes.NewReader([]byte(`{"addr":"0xzz"}`)), Discard, 0); err == nil {
		t.Error("unparsable hex should error")
	}
}
