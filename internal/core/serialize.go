package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mem"
	"repro/internal/pmu"
)

// Profile serialization: the online profiler "serializes the profiles from
// different threads and writes them into a log file for offline analysis"
// (§4). The format is a small versioned binary layout; everything is
// little-endian.

var profileMagic = [4]byte{'C', 'C', 'P', '2'}

var errBadProfile = errors.New("core: not a CCProf profile (bad magic)")

// Samples move in bounded chunks: WriteTo encodes and ReadProfile decodes
// sampleChunk samples (16 bytes each: IP then Addr) per Write or ReadFull,
// with binary.LittleEndian on the bytes.
const (
	sampleBytes = 16
	sampleChunk = 4096
)

// maxSamplePrealloc caps how many samples ReadProfile allocates for a
// thread once its first chunk has arrived. Past it a thread's slice grows
// only as samples are actually read (doubling, never past the claimed
// count), so a short file cannot make the reader allocate what its header
// claims, yet every thread of up to maxSamplePrealloc samples lands in one
// exact allocation.
const maxSamplePrealloc = 1 << 15

// WriteTo serializes the profile. It returns the number of bytes written.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	buf := make([]byte, 0, sampleChunk*sampleBytes)
	buf = append(buf, profileMagic[:]...)
	buf = le.AppendUint32(buf, uint32(len(p.Workload)))
	buf = append(buf, p.Workload...)
	for _, v := range [...]uint64{
		uint64(p.Geom.LineSize), uint64(p.Geom.Sets), uint64(p.Geom.Ways),
		math.Float64bits(p.PeriodMean),
		p.Events, p.Refs,
		uint64(p.BaselineNs), uint64(p.ProfiledNs),
		uint64(p.Burst),
		uint64(len(p.Samples)),
	} {
		buf = le.AppendUint64(buf, v)
	}
	var n int64
	for _, thread := range p.Samples {
		buf = le.AppendUint64(buf, uint64(len(thread)))
		for _, sm := range thread {
			if len(buf)+sampleBytes > cap(buf) {
				m, err := w.Write(buf)
				n += int64(m)
				if err != nil {
					return n, err
				}
				buf = buf[:0]
			}
			buf = le.AppendUint64(buf, sm.IP)
			buf = le.AppendUint64(buf, sm.Addr)
		}
	}
	m, err := w.Write(buf)
	return n + int64(m), err
}

// readPart reads exactly len(b) bytes of the named part of a profile. The
// header promised those bytes, so running out is io.ErrUnexpectedEOF even
// when none of them arrived.
func readPart(r io.Reader, b []byte, part string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("core: reading profile %s: %w", part, err)
	}
	return nil
}

// ReadProfile deserializes a profile written by WriteTo. Allocation grows
// with the bytes actually read, not with the counts a header claims.
func ReadProfile(r io.Reader) (*Profile, error) {
	le := binary.LittleEndian
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading profile header: %w", err)
	}
	if magic != profileMagic {
		return nil, errBadProfile
	}
	buf := make([]byte, 80)
	if err := readPart(r, buf[:4], "name length"); err != nil {
		return nil, err
	}
	nameLen := le.Uint32(buf)
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("core: implausible workload name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if err := readPart(r, name, "workload name"); err != nil {
		return nil, err
	}
	if err := readPart(r, buf[:80], "header"); err != nil {
		return nil, err
	}
	var hdr [10]uint64
	for i := range hdr {
		hdr[i] = le.Uint64(buf[8*i:])
	}
	geom, err := mem.NewGeometry(int(hdr[0]), int(hdr[1]), int(hdr[2]))
	if err != nil {
		return nil, fmt.Errorf("core: profile geometry: %w", err)
	}
	threads := hdr[9]
	if threads > 1<<16 {
		return nil, fmt.Errorf("core: implausible thread count %d", threads)
	}
	p := &Profile{
		Workload:   string(name),
		Geom:       geom,
		PeriodMean: math.Float64frombits(hdr[3]),
		Events:     hdr[4],
		Refs:       hdr[5],
		BaselineNs: int64(hdr[6]),
		ProfiledNs: int64(hdr[7]),
		Burst:      int(hdr[8]),
		Samples:    make([][]pmu.Sample, 0, min(threads, 64)),
	}
	for range threads {
		if err := readPart(r, buf[:8], "sample count"); err != nil {
			return nil, err
		}
		count := le.Uint64(buf)
		if count > 1<<32 {
			return nil, fmt.Errorf("core: implausible sample count %d", count)
		}
		s := make([]pmu.Sample, 0)
		for left := count; left > 0; {
			k := int(min(left, sampleChunk))
			if cap(buf) < k*sampleBytes {
				buf = make([]byte, k*sampleBytes)
			}
			b := buf[:k*sampleBytes]
			if err := readPart(r, b, "samples"); err != nil {
				return nil, err
			}
			if len(s)+k > cap(s) {
				// The first chunk sizes the slice from the claim, up to
				// maxSamplePrealloc; later growth doubles, never past it.
				grown := make([]pmu.Sample, len(s), min(count, max(maxSamplePrealloc, 2*uint64(cap(s)))))
				copy(grown, s)
				s = grown
			}
			for i := 0; i < len(b); i += sampleBytes {
				s = append(s, pmu.Sample{IP: le.Uint64(b[i:]), Addr: le.Uint64(b[i+8:])})
			}
			left -= uint64(k)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}
