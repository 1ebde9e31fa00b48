package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// External-trace adapter: `perf script`-style JSONL. Each line is one JSON
// object describing a sampled memory access. Field names vary across
// exporters, so the decoder accepts the common aliases:
//
//	instruction pointer: "ip" or "pc"
//	data address:        "addr", "address" or "data_addr"
//	access kind:         "op", "event" or "type"; values containing
//	                     "store" or "write" (case-insensitive) mark stores
//
// Numeric fields may be JSON numbers or strings in any base strconv
// accepts ("1234", "0x4a0f20"). Lines that parse as JSON but carry no data
// address (comments, metadata records) are skipped and counted; lines that
// are not JSON at all are an error, so a mis-specified input fails loudly
// instead of decoding to an empty trace.

// hexField is a uint64 that unmarshals from a JSON number or a string such
// as "0x4a0f20".
type hexField uint64

func (h *hexField) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return err
		}
		*h = hexField(v)
		return nil
	}
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*h = hexField(v)
	return nil
}

// jsonlRecord matches one JSONL sample line, with nil marking absent fields.
type jsonlRecord struct {
	IP       *hexField `json:"ip"`
	PC       *hexField `json:"pc"`
	Addr     *hexField `json:"addr"`
	Address  *hexField `json:"address"`
	DataAddr *hexField `json:"data_addr"`
	Op       string    `json:"op"`
	Event    string    `json:"event"`
	Type     string    `json:"type"`
}

func (rec *jsonlRecord) ref() (Ref, bool) {
	addr := rec.Addr
	if addr == nil {
		addr = rec.Address
	}
	if addr == nil {
		addr = rec.DataAddr
	}
	if addr == nil {
		return Ref{}, false
	}
	ip := rec.IP
	if ip == nil {
		ip = rec.PC
	}
	r := Ref{Addr: uint64(*addr)}
	if ip != nil {
		r.IP = uint64(*ip)
	}
	kind := rec.Op
	if kind == "" {
		kind = rec.Event
	}
	if kind == "" {
		kind = rec.Type
	}
	kind = strings.ToLower(kind)
	r.Write = strings.Contains(kind, "store") || strings.Contains(kind, "write")
	return r, true
}

// ReadJSONL streams a perf-script-style JSONL trace from r into sink. It
// returns the number of references delivered and the number of well-formed
// lines skipped for lacking a data address. A head above 0 stops reading at
// the record holding the head-th reference; lines after it are never read.
// A line that is not valid JSON aborts with an error naming the line
// number; the references decoded before it are still delivered.
func ReadJSONL(r io.Reader, sink Sink, head uint64) (refs, skipped int, err error) {
	e := NewEmitter(sink)
	defer e.Flush()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for (head == 0 || uint64(refs) < head) && sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return refs, skipped, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		ref, ok := rec.ref()
		if !ok {
			skipped++
			continue
		}
		e.Ref(ref)
		refs++
	}
	if err := sc.Err(); err != nil {
		return refs, skipped, fmt.Errorf("trace: reading jsonl: %w", err)
	}
	return refs, skipped, nil
}
