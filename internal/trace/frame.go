package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framed block trace format ("CCTB"), the only on-disk and on-wire
// representation of a reference stream.
//
// Reference streams are extremely regular (a handful of instruction
// pointers, strided addresses), so each reference is delta-plus-varint
// coded against its predecessor, several times smaller than a flat 17-byte
// record. The deltas reset at every frame boundary, so each frame is
// independently decodable and a reader can resume mid-stream:
//
//	header (16 bytes, fixed):
//	    magic  "CCTB"            [4]byte
//	    version 1                uint8
//	    reserved                 [3]byte
//	    frame capacity (refs)    uint32 LE   (writer's block size, a hint)
//	    reserved                 uint32
//	frame (repeated until EOF):
//	    payload length (bytes)   uint32 LE
//	    reference count          uint32 LE
//	    payload: per reference
//	        flags byte (bit 0: write)
//	        uvarint( zigzag(ip   - prev ip)   )   prev starts at 0 per frame
//	        uvarint( zigzag(addr - prev addr) )   prev starts at 0 per frame
//
// Fixed-size frame headers make the format seek-friendly: a reader can skip
// a frame in O(1) (read 8 bytes, seek payload length), so indexing a
// multi-gigabyte trace into resumable segments touches only headers, and a
// StreamPos checkpoint (frame index + byte offset) re-enters the stream at
// any frame boundary without replaying the prefix. Deltas within a frame
// use wrap-around arithmetic, so every 64-bit value round-trips exactly.
var frameMagic = [4]byte{'C', 'C', 'T', 'B'}

// frameVersion is the current format version, rejected if unknown so format
// evolution fails loudly instead of decoding garbage.
const frameVersion = 1

// frameHeaderBytes is the size of the fixed file header.
const frameHeaderBytes = 16

// maxFrameRefs bounds the per-frame reference count a reader accepts. The
// writer never produces frames above its block size (DefaultBlock unless
// configured larger); the bound exists so a corrupted or hostile header
// cannot make the reader allocate an absurd block.
const maxFrameRefs = 1 << 20

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// maxRefEncoded is the worst-case encoded size of one reference: one flags
// byte plus two maximal uvarints.
const maxRefEncoded = 1 + 2*binary.MaxVarintLen64

// Typed frame-format errors, matchable with errors.Is through the errors
// the reader wraps them in.
var (
	// ErrBadFrameMagic reports a stream that is not a CCTB trace.
	ErrBadFrameMagic = errors.New("trace: bad magic; not a framed (CCTB) CCProf trace")
	// ErrBadFrameVersion reports an unknown format version.
	ErrBadFrameVersion = errors.New("trace: unsupported framed-trace version")
	// ErrCorruptFrame reports a frame whose header or payload is
	// inconsistent: a count or length outside the format's bounds, a
	// payload that decodes to the wrong number of references, or a
	// truncation inside a frame.
	ErrCorruptFrame = errors.New("trace: corrupt frame")
)

// TraceWriter serializes a reference stream in the framed block format. It
// implements Sink; references are staged into an owned RefBlock and encoded
// one frame per full block, so the emitted frame sizes are a function of
// the reference sequence and the configured block size alone — never of the
// granularity the producer happened to deliver in. Close flushes the final partial frame; encoding errors are sticky and
// reported by Close.
type TraceWriter struct {
	bw    *bufio.Writer
	err   error
	wrote bool
	size  int
	blk   RefBlock
	buf   []byte // frame encoding scratch, reused across frames

	refs   uint64
	frames uint64
}

// NewTraceWriter returns a TraceWriter emitting frames of up to size
// references to w (0 selects DefaultBlock).
func NewTraceWriter(w io.Writer, size int) *TraceWriter {
	if size <= 0 {
		size = DefaultBlock
	}
	if size > maxFrameRefs {
		size = maxFrameRefs
	}
	tw := &TraceWriter{bw: bufio.NewWriter(w), size: size}
	tw.blk.Grow(size)
	return tw
}

// header emits the file header once. It reports whether writing may proceed.
func (tw *TraceWriter) header() bool {
	if tw.err != nil {
		return false
	}
	if tw.wrote {
		return true
	}
	var h [frameHeaderBytes]byte
	copy(h[0:4], frameMagic[:])
	h[4] = frameVersion
	binary.LittleEndian.PutUint32(h[8:12], uint32(tw.size))
	if _, err := tw.bw.Write(h[:]); err != nil {
		tw.err = err
		return false
	}
	tw.wrote = true
	return true
}

// RefBlock implements Sink. The incoming block is re-staged through
// the writer's own buffer (not forwarded whole), keeping frame boundaries
// independent of the producer's blocking.
func (tw *TraceWriter) RefBlock(b *RefBlock) {
	for lo := 0; lo < b.Len(); {
		n := tw.size - tw.blk.Len()
		if n == 0 {
			tw.flush()
			continue
		}
		if n > b.Len()-lo {
			n = b.Len() - lo
		}
		tw.blk.IP = append(tw.blk.IP, b.IP[lo:lo+n]...)
		tw.blk.Addr = append(tw.blk.Addr, b.Addr[lo:lo+n]...)
		tw.blk.Flags = append(tw.blk.Flags, b.Flags[lo:lo+n]...)
		lo += n
	}
}

// flush encodes the staged block as one frame.
func (tw *TraceWriter) flush() {
	n := tw.blk.Len()
	if n == 0 || !tw.header() {
		tw.blk.Reset()
		return
	}
	need := 8 + n*maxRefEncoded
	if cap(tw.buf) < need {
		tw.buf = make([]byte, need)
	}
	buf := tw.buf[:need]
	var prevIP, prevAddr uint64
	o := 8
	for i := 0; i < n; i++ {
		buf[o] = tw.blk.Flags[i] & FlagWrite
		o++
		o += binary.PutUvarint(buf[o:], zigzag(int64(tw.blk.IP[i]-prevIP)))
		o += binary.PutUvarint(buf[o:], zigzag(int64(tw.blk.Addr[i]-prevAddr)))
		prevIP, prevAddr = tw.blk.IP[i], tw.blk.Addr[i]
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(o-8))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	if _, err := tw.bw.Write(buf[:o]); err != nil {
		tw.err = err
	}
	tw.refs += uint64(n)
	tw.frames++
	tw.blk.Reset()
}

// Stats returns the references and frames written so far (staged references
// not yet flushed are excluded).
func (tw *TraceWriter) Stats() (refs, frames uint64) { return tw.refs, tw.frames }

// Close flushes the final partial frame and the underlying buffer, and
// returns the first error encountered. Closing an empty writer still emits
// the header so the file is readable.
func (tw *TraceWriter) Close() error {
	tw.flush()
	if tw.err != nil {
		return tw.err
	}
	if !tw.header() {
		return tw.err
	}
	return tw.bw.Flush()
}

// StreamPos is a checkpoint into a framed trace: the state a TraceReader
// needs to resume consumption at a frame boundary without replaying the
// prefix. It round-trips through encoding/json, so sweep checkpoints can
// persist it (see parsim.Checkpoint).
type StreamPos struct {
	// Frame is the index of the next frame to decode.
	Frame uint64 `json:"frame"`
	// Offset is the byte offset of that frame from the start of the
	// stream (header included).
	Offset int64 `json:"offset"`
	// Refs is the number of references preceding the frame.
	Refs uint64 `json:"refs"`
}

// TraceReader decodes a framed trace into RefBlocks — the block-producing
// side of the streaming replay path. The reader owns one RefBlock that every
// Next call reuses, so iterating a trace of any length allocates a single
// block: memory is O(frame size), independent of trace length.
type TraceReader struct {
	br  *bufio.Reader
	blk RefBlock
	pos StreamPos
	buf []byte  // frame payload scratch, reused across frames
	hdr [8]byte // frame header scratch; a field so ReadFull doesn't heap-allocate per frame
}

// NewTraceReader validates the stream header and returns a reader
// positioned at the first frame.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var h [frameHeaderBytes]byte
	n, err := io.ReadFull(br, h[:])
	if n >= 4 && [4]byte(h[0:4]) != frameMagic {
		return nil, ErrBadFrameMagic // even a file shorter than the header
	}
	if err != nil {
		return nil, fmt.Errorf("trace: reading framed header: %w", err)
	}
	if h[4] != frameVersion {
		return nil, fmt.Errorf("%w %d", ErrBadFrameVersion, h[4])
	}
	return &TraceReader{br: br, pos: StreamPos{Offset: frameHeaderBytes}}, nil
}

// ResumeTraceReader validates the header, seeks to the checkpoint, and
// returns a reader that continues from pos — the resume path for a shard
// that already consumed the trace up to a frame boundary.
func ResumeTraceReader(rs io.ReadSeeker, pos StreamPos) (*TraceReader, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: resuming framed trace: %w", err)
	}
	tr, err := NewTraceReader(rs)
	if err != nil {
		return nil, err
	}
	if pos.Offset < frameHeaderBytes {
		return nil, fmt.Errorf("%w: resume offset %d inside header", ErrCorruptFrame, pos.Offset)
	}
	if _, err := rs.Seek(pos.Offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: resuming framed trace: %w", err)
	}
	tr.br.Reset(rs)
	tr.pos = pos
	return tr, nil
}

// Pos returns the checkpoint of the reader's current position: the next
// frame Next would decode.
func (tr *TraceReader) Pos() StreamPos { return tr.pos }

// frameHeader reads one frame header and validates its bounds. io.EOF at a
// frame boundary is clean end-of-trace.
func (tr *TraceReader) frameHeader() (payload uint32, count uint32, err error) {
	if _, err := io.ReadFull(tr.br, tr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("%w: truncated header of frame %d: %v", ErrCorruptFrame, tr.pos.Frame, err)
	}
	payload = binary.LittleEndian.Uint32(tr.hdr[0:4])
	count = binary.LittleEndian.Uint32(tr.hdr[4:8])
	if count == 0 || count > maxFrameRefs {
		return 0, 0, fmt.Errorf("%w: frame %d declares %d references", ErrCorruptFrame, tr.pos.Frame, count)
	}
	if payload < 3*count || payload > count*maxRefEncoded {
		return 0, 0, fmt.Errorf("%w: frame %d declares %d payload bytes for %d references",
			ErrCorruptFrame, tr.pos.Frame, payload, count)
	}
	return payload, count, nil
}

// Next decodes the next frame into the reader's block and returns it. The
// block is valid until the following Next call. At end of stream it returns
// (nil, io.EOF); a frame that is truncated or inconsistent returns an error
// wrapping ErrCorruptFrame.
func (tr *TraceReader) Next() (*RefBlock, error) {
	payload, count, err := tr.frameHeader()
	if err != nil {
		return nil, err
	}
	if cap(tr.buf) < int(payload) {
		tr.buf = make([]byte, payload)
	}
	buf := tr.buf[:payload]
	if _, err := io.ReadFull(tr.br, buf); err != nil {
		return nil, fmt.Errorf("%w: truncated payload of frame %d: %v", ErrCorruptFrame, tr.pos.Frame, err)
	}
	tr.blk.Reset()
	tr.blk.Grow(int(count))
	var ip, addr uint64
	o := 0
	for i := uint32(0); i < count; i++ {
		if o >= len(buf) {
			return nil, fmt.Errorf("%w: frame %d payload ends at reference %d of %d",
				ErrCorruptFrame, tr.pos.Frame, i, count)
		}
		flags := buf[o]
		o++
		d, n := binary.Uvarint(buf[o:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: frame %d has a malformed ip delta at reference %d",
				ErrCorruptFrame, tr.pos.Frame, i)
		}
		o += n
		ip += uint64(unzigzag(d))
		d, n = binary.Uvarint(buf[o:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: frame %d has a malformed addr delta at reference %d",
				ErrCorruptFrame, tr.pos.Frame, i)
		}
		o += n
		addr += uint64(unzigzag(d))
		tr.blk.IP = append(tr.blk.IP, ip)
		tr.blk.Addr = append(tr.blk.Addr, addr)
		tr.blk.Flags = append(tr.blk.Flags, flags&FlagWrite)
	}
	if o != len(buf) {
		return nil, fmt.Errorf("%w: frame %d has %d trailing payload bytes",
			ErrCorruptFrame, tr.pos.Frame, len(buf)-o)
	}
	tr.pos.Frame++
	tr.pos.Offset += int64(8 + payload)
	tr.pos.Refs += uint64(count)
	return &tr.blk, nil
}

// Replay streams every remaining frame into sink, one block per frame, and
// returns the number of references replayed.
func (tr *TraceReader) Replay(sink Sink) (int, error) {
	n := 0
	for {
		blk, err := tr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += blk.Len()
		sink.RefBlock(blk)
	}
}

// ScanIndex walks the remaining frame headers without decoding payloads and
// returns the positions of every every-th frame boundary (every <= 1 indexes
// each frame), always including the reader's starting position, plus the
// end-of-trace position. The returned segment boundaries are where sharded
// consumers (see core.ProfileTraceSharded) split a trace: each segment is
// independently decodable because frames are self-contained. The reader is
// consumed by the scan.
func (tr *TraceReader) ScanIndex(every int) ([]StreamPos, error) {
	if every < 1 {
		every = 1
	}
	index := []StreamPos{tr.pos}
	for {
		payload, count, err := tr.frameHeader()
		if err == io.EOF {
			if last := index[len(index)-1]; last != tr.pos {
				index = append(index, tr.pos)
			}
			return index, nil
		}
		if err != nil {
			return nil, err
		}
		if _, err := tr.br.Discard(int(payload)); err != nil {
			return nil, fmt.Errorf("%w: truncated payload of frame %d: %v", ErrCorruptFrame, tr.pos.Frame, err)
		}
		tr.pos.Frame++
		tr.pos.Offset += int64(8 + payload)
		tr.pos.Refs += uint64(count)
		if tr.pos.Frame%uint64(every) == 0 {
			index = append(index, tr.pos)
		}
	}
}

// ReadAllFramed replays a framed trace from r into sink and returns the
// number of references replayed.
func ReadAllFramed(r io.Reader, sink Sink) (int, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return 0, err
	}
	return tr.Replay(sink)
}
