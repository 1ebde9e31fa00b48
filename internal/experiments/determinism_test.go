package experiments

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parsim"
)

// atWorkers runs fn with the process-default sweep worker count pinned to
// n, restoring the GOMAXPROCS default afterwards.
func atWorkers(n int, fn func()) {
	parsim.SetDefaultWorkers(n)
	defer parsim.SetDefaultWorkers(0)
	fn()
}

// quickRun is one Quick-scale run of a registered experiment, kept for
// every test in the package that needs that run.
type quickRun struct {
	text []byte // the rendered report
	rows any    // the result rows, for shape assertions
	out  []byte // text followed by the rows' JSON: all a user or tool reads
	obs  []byte // the deterministic slice of the run's obs snapshot
}

var (
	runsMu sync.Mutex
	runs   = map[string]*[2]*quickRun{}
)

// sharedRun returns run i (0 or 1) of the named experiment, running it on
// first use. Run 0 uses one sweep worker and run 1 eight, so the suites
// share two runs per experiment instead of each running its own: TestGolden
// checks run 0's text, the -j1/-j8 suites compare run 0 with run 1 (output
// and obs counters), TestExperimentsRunTwiceIdentical compares the two runs
// made in this one process, and the shape tests read run 0's rows. No
// experiment runs more than twice per test process.
func sharedRun(t *testing.T, name string, i int) *quickRun {
	t.Helper()
	runsMu.Lock()
	defer runsMu.Unlock()
	pair := runs[name]
	if pair == nil {
		pair = new([2]*quickRun)
		runs[name] = pair
	}
	if pair[i] != nil {
		return pair[i]
	}
	fn, ok := registry()[name]
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	r := new(quickRun)
	var err error
	atWorkers([2]int{1, 8}[i], func() {
		r.obs = deterministicObs(t, func() {
			var buf bytes.Buffer
			r.rows, err = fn(&buf, Quick)
			r.text = buf.Bytes()
		})
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	raw, err := json.Marshal(r.rows)
	if err != nil {
		t.Fatal(err)
	}
	r.out = append(append([]byte(nil), r.text...), raw...)
	pair[i] = r
	return r
}

// sharedRows returns run 0's result rows of the named experiment as T.
func sharedRows[T any](t *testing.T, name string) T {
	t.Helper()
	rows, ok := sharedRun(t, name, 0).rows.(T)
	if !ok {
		t.Fatalf("%s rows are %T", name, sharedRun(t, name, 0).rows)
	}
	return rows
}

// sweepCases lists the experiments routed through the sweep executor,
// whose full observable output (text + structured rows) must be worker
// count independent. table2 and specgen carry wall-clock measurements
// in-process, but those fields are excluded from serialization (json:"-"),
// so their rendered output is as deterministic as the rest.
var sweepCases = []string{"fig7", "fig9", "table2", "table3", "staticconf", "analytic", "specgen", "faults", "streaming"}

// TestExperimentsSerialParallelIdentical is the engine-level determinism
// regression: every experiment routed through the sweep executor must
// produce byte-identical reports at -j 1 and -j 8. A failure here means a
// task picked up shared state (an RNG, a map, an accumulator) whose value
// depends on scheduling.
func TestExperimentsSerialParallelIdentical(t *testing.T) {
	for _, name := range sweepCases {
		t.Run(name, func(t *testing.T) {
			serial, parallel := sharedRun(t, name, 0).out, sharedRun(t, name, 1).out
			if !bytes.Equal(serial, parallel) {
				t.Errorf("%s output differs between -j1 and -j8 (%d vs %d bytes)",
					name, len(serial), len(parallel))
			}
		})
	}
}

// TestExperimentsRunTwiceIdentical is the wall-clock/iteration-order audit
// in executable form: every registered experiment, run twice in the same
// process at Quick scale, must render byte-identical text. A failure means
// a timing, an RNG shared across runs, or a map iteration order leaked
// into the report (the ProfiledNs class of bug). The two runs are the
// shared pair, one at -j1 and one at -j8.
func TestExperimentsRunTwiceIdentical(t *testing.T) {
	names := Names()
	if raceEnabled {
		// Full matrix under -race would take minutes for no extra signal
		// (value determinism is scheduler-independent); keep one profiler
		// sweep, one simulation sweep, one static path, and the L2
		// extension as representatives.
		names = []string{"fig9", "table2", "staticconf", "l2ext"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			first, second := sharedRun(t, name, 0).text, sharedRun(t, name, 1).text
			if !bytes.Equal(first, second) {
				t.Errorf("%s output differs between two identical runs (%d vs %d bytes)",
					name, len(first), len(second))
			}
		})
	}
}

// deterministicObs runs fn against a freshly reset process registry and
// returns the JSON of the worker-count-independent slice of its snapshot:
// counters and histograms (gauges legitimately record configuration such
// as the worker count itself, and phases are wall-clock).
func deterministicObs(t *testing.T, fn func()) []byte {
	t.Helper()
	obs.Default.Reset()
	fn()
	s := obs.Default.Snapshot().Deterministic()
	s.Gauges = nil
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsCountersSerialParallelIdentical extends the determinism guarantee
// to the observability layer itself: the merged counters and histograms of
// a run — refs streamed, hits/misses per set, samples, tasks — must be
// byte-identical at -j1 and -j8. This is what licenses shard-local
// counting with merge-on-reassembly.
func TestObsCountersSerialParallelIdentical(t *testing.T) {
	for _, name := range []string{"fig9", "staticconf"} {
		t.Run(name, func(t *testing.T) {
			serial, parallel := sharedRun(t, name, 0).obs, sharedRun(t, name, 1).obs
			if !bytes.Equal(serial, parallel) {
				t.Errorf("%s obs counters differ between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
					name, serial, parallel)
			}
		})
	}
}
