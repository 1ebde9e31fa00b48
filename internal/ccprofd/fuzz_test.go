package ccprofd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzSubmit drives POST /jobs through the real handler with arbitrary
// bodies. The daemon is never started, so an accepted job stays queued
// and only a submission can append to the journal. For every body: no
// panic and no 5xx; a 202 only for a body whose decoded spec passes
// Validate; and any other status leaves the journal bytes unchanged.
func FuzzSubmit(f *testing.F) {
	maxMS := int64(math.MaxInt64 / time.Millisecond)
	for _, body := range []string{
		`{"kind":"profile","workload":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
		fmt.Sprintf(`{"kind":"profile","workload":"kripke","threads":%d}`, core.MaxThreads+1),
		fmt.Sprintf(`{"kind":"profile","workload":"kripke","deadline_ms":%d}`, maxMS+1),
		fmt.Sprintf(`{"kind":"profile","workload":"kripke","fault_slow_ms":%d}`, maxMS+1),
		fmt.Sprintf(`{"kind":"profile","workload":"himeno","period":%d}`, minPeriod-1),
		`{"kind":"profile","workload":"nw","period":171,"threads":2}`,
	} {
		f.Add([]byte(body))
	}

	dir := f.TempDir()
	d, err := New(Options{DataDir: dir, QueueCap: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Drain)
	h := d.Handler()
	journal := filepath.Join(dir, "jobs.journal")

	f.Fuzz(func(t *testing.T, body []byte) {
		before, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusAccepted {
			var spec Spec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatalf("202 for a body that does not decode (%v): %q", err, body)
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("202 for a spec Validate rejects (%v): %q", err, body)
			}
			return
		}
		after, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("status %d changed the journal (%d -> %d bytes) for body %q", rec.Code, len(before), len(after), body)
		}
	})
}
