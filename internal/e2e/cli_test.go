// Package e2e_test builds the real CLI binaries and drives them as a user
// would: black-box process-level tests asserting exit codes and key output
// lines for both a clean and a pathological scenario.
package e2e_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// binDir holds the binaries built once in TestMain.
var binDir string

// moduleRoot returns the repository root (the directory of go.mod), derived
// from this source file's location so the tests work from any working
// directory.
func moduleRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("e2e: cannot locate caller")
	}
	root := filepath.Join(filepath.Dir(file), "..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("e2e: %s does not look like the module root: %w", root, err)
	}
	return filepath.Abs(root)
}

func TestMain(m *testing.M) {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "ccprof-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, cmd := range []string{"ccprof", "ccprofd", "ccsim", "cctrace", "conflint", "experiments"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: go build ./cmd/%s: %v\n%s", cmd, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes a built binary and returns its combined stdout, stderr, and
// exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return out.String(), errb.String(), exit
}

func TestCCProfList(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "-list")
	if exit != 0 {
		t.Fatalf("ccprof -list: exit %d, stderr %q", exit, stderr)
	}
	for _, w := range []string{"nw", "adi", "himeno"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("ccprof -list output is missing workload %q:\n%s", w, stdout)
		}
	}
}

// TestCCProfPathological profiles the NW original build, the paper's
// flagship conflict case: the report must flag conflict misses.
func TestCCProfPathological(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "nw")
	if exit != 0 {
		t.Fatalf("ccprof nw: exit %d, stderr %q", exit, stderr)
	}
	for _, w := range []string{"profiled nw", "CCProf report for nw", "CONFLICT MISSES DETECTED"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("ccprof nw output is missing %q:\n%s", w, stdout)
		}
	}
}

// TestCCProfClean profiles the optimized (padded) NW build: same kernel,
// conflicts gone, clean verdict.
func TestCCProfClean(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "-variant", "optimized", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -variant optimized nw: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "no significant conflict misses") {
		t.Errorf("optimized NW should be clean:\n%s", stdout)
	}
	if strings.Contains(stdout, "CONFLICT MISSES DETECTED") {
		t.Errorf("optimized NW reported conflicts:\n%s", stdout)
	}
}

// TestCCProfSavedProfile drives the saved-profile path: a profile written
// by -profile-out and read back by -analyze must print exactly the direct
// run's report, and -analyze must exit 1 on a profile whose header claims
// samples the file does not hold and on a profile of a different program
// than the workload argument and -variant select.
func TestCCProfSavedProfile(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "nw.prof")
	direct, stderr, exit := run(t, "ccprof", "-profile-out", saved, "nw")
	if exit != 0 {
		t.Fatalf("ccprof -profile-out: exit %d, stderr %q", exit, stderr)
	}
	analyzed, stderr, exit := run(t, "ccprof", "-analyze", saved, "nw")
	if exit != 0 {
		t.Fatalf("ccprof -analyze: exit %d, stderr %q", exit, stderr)
	}
	report := func(out string) string {
		if i := strings.Index(out, "CCProf report for"); i >= 0 {
			return out[i:]
		}
		return ""
	}
	if want := report(direct); want == "" || report(analyzed) != want {
		t.Errorf("-analyze report differs from the direct run's:\n%s\n--- direct ---\n%s", analyzed, direct)
	}

	// 96 bytes: magic, empty name, 64/64/8 geometry, one thread claiming
	// 2^32 samples, and none of them.
	crafted := []byte("CCP2\x00\x00\x00\x00")
	for _, v := range []uint64{64, 64, 8, 0, 0, 0, 0, 0, 0, 1, 1 << 32} {
		crafted = binary.LittleEndian.AppendUint64(crafted, v)
	}
	claim := filepath.Join(dir, "claim.prof")
	if err := os.WriteFile(claim, crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-analyze", claim, "nw"}, []string{"reading profile", "unexpected EOF"}},
		{[]string{"-analyze", saved, "adi"}, []string{"profile of nw", "select adi"}},
		{[]string{"-analyze", saved, "-variant", "optimized", "nw"}, []string{"profile of nw", "select nw-pad288-32"}},
	} {
		_, stderr, exit := run(t, "ccprof", tc.args...)
		if exit != 1 {
			t.Errorf("ccprof %v: exit %d, want 1 (stderr %q)", tc.args, exit, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("ccprof %v: stderr %q is missing %q", tc.args, stderr, w)
			}
		}
	}
}

func TestCCProfUnknownWorkload(t *testing.T) {
	_, stderr, exit := run(t, "ccprof", "no-such-workload")
	if exit != 1 {
		t.Fatalf("ccprof no-such-workload: exit %d, want 1 (stderr %q)", exit, stderr)
	}
	if !strings.Contains(stderr, "no-such-workload") {
		t.Errorf("stderr does not name the unknown workload: %q", stderr)
	}
}

func TestCCProfUsage(t *testing.T) {
	_, stderr, exit := run(t, "ccprof")
	if exit != 2 {
		t.Fatalf("ccprof (no args): exit %d, want 2", exit)
	}
	if !strings.Contains(stderr, "usage: ccprof") {
		t.Errorf("stderr is not the usage message: %q", stderr)
	}
}

// TestCCProfThreadLimit: a -threads count over core.MaxThreads is a usage
// error, refused before any profiling starts.
func TestCCProfThreadLimit(t *testing.T) {
	over := fmt.Sprint(core.MaxThreads + 1)
	for _, extra := range [][]string{nil, {"-stream"}} {
		args := append(append([]string{"-threads", over}, extra...), "nw")
		stdout, stderr, exit := run(t, "ccprof", args...)
		if exit != 2 {
			t.Fatalf("ccprof %v: exit %d, want 2 (stderr %q)", args, exit, stderr)
		}
		if !strings.Contains(stderr, "-threads "+over) || stdout != "" {
			t.Errorf("ccprof %v: stderr %q, stdout %q; want only the usage error", args, stderr, stdout)
		}
	}
}

// TestCCProfObsSnapshot checks the observability flag end to end: -obs
// must dump a snapshot whose counters cover the PMU and the report phase.
func TestCCProfObsSnapshot(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "-obs", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -obs nw: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "CCProf report for nw") {
		t.Errorf("-obs must not change the report:\n%s", stdout)
	}
	for _, w := range []string{"--- obs snapshot ---", `"pmu.refs"`, `"trace.refs_streamed"`, `"phases"`, `"profile"`} {
		if !strings.Contains(stderr, w) {
			t.Errorf("obs snapshot is missing %q:\n%s", w, stderr)
		}
	}
}

// TestCCProfAnalytic checks the closed-form tier-0 report end to end:
// -analytic must print the arithmetic verdict before the profiled one,
// flagging the NW original and clearing the optimized build.
func TestCCProfAnalytic(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "-analytic", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -analytic nw: exit %d, stderr %q", exit, stderr)
	}
	for _, w := range []string{"analytic model of nw", "analytic conflict model", "verdict: conflict", "CCProf report for nw"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("ccprof -analytic nw output is missing %q:\n%s", w, stdout)
		}
	}
	stdout, stderr, exit = run(t, "ccprof", "-analytic", "-variant", "optimized", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -analytic -variant optimized nw: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "verdict: clean") {
		t.Errorf("optimized NW should be analytically clean:\n%s", stdout)
	}
}

func TestConflintPathological(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "pathological")
	stdout, stderr, exit := run(t, "conflint", "-fail", dir)
	if exit != 1 {
		t.Fatalf("conflint -fail on pathological fixture: exit %d, want 1 (stderr %q)", exit, stderr)
	}
	if !strings.Contains(stdout, "kernels linted") || strings.Contains(stdout, " 0 findings") {
		t.Errorf("pathological fixture should produce findings:\n%s", stdout)
	}
}

func TestConflintClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "clean")
	stdout, stderr, exit := run(t, "conflint", "-fail", dir)
	if exit != 0 {
		t.Fatalf("conflint -fail on clean fixture: exit %d, want 0 (stderr %q, stdout %q)", exit, stderr, stdout)
	}
	if !strings.Contains(stdout, "0 findings") {
		t.Errorf("clean fixture should report 0 findings:\n%s", stdout)
	}
}

// TestConflintJSON drives the machine-readable mode: the document must
// parse, split file/line out of the loop location, and carry the
// analytic severity pricing on every finding.
func TestConflintJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "pathological")
	stdout, stderr, exit := run(t, "conflint", "-json", dir)
	if exit != 0 {
		t.Fatalf("conflint -json: exit %d, stderr %q", exit, stderr)
	}
	var doc struct {
		Kernels  int `json:"kernels"`
		Findings []struct {
			Kernel      string  `json:"kernel"`
			File        string  `json:"file"`
			Line        int     `json:"line"`
			Kind        string  `json:"kind"`
			Severity    string  `json:"severity"`
			PredictedCF float64 `json:"predicted_cf"`
			Fingerprint string  `json:"fingerprint"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("conflint -json output is not valid JSON: %v\n%s", err, stdout)
	}
	if doc.Kernels != 3 || len(doc.Findings) == 0 {
		t.Fatalf("expected 3 kernels with findings, got %d kernels, %d findings", doc.Kernels, len(doc.Findings))
	}
	sawHigh := false
	for _, f := range doc.Findings {
		if f.Severity == "" {
			t.Errorf("finding %s/%s has no severity", f.Kernel, f.Kind)
		}
		if f.Severity == "high" {
			sawHigh = true
			if f.PredictedCF < 0.7 {
				t.Errorf("high-severity finding %s/%s has predicted cf %.2f < 0.7", f.Kernel, f.Kind, f.PredictedCF)
			}
		}
		// Whole-kernel rules carry no kernel-space loop coordinate; every
		// per-access finding must.
		if f.Kind != "static-conflict" && f.Kind != "padfix" && (f.File == "" || f.Line == 0) {
			t.Errorf("per-access finding %s/%s is missing file/line", f.Kernel, f.Kind)
		}
		if f.Fingerprint == "" {
			t.Errorf("finding %s/%s has no fingerprint", f.Kernel, f.Kind)
		}
	}
	if !sawHigh {
		t.Error("pathological fixture produced no high-severity finding")
	}
}

// TestConflintBaseline checks the ratchet: against a baseline of its own
// findings the pathological fixture passes; against an empty baseline it
// fails with the findings named on stderr.
func TestConflintBaseline(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "pathological")
	stdout, stderr, exit := run(t, "conflint", "-json", dir)
	if exit != 0 {
		t.Fatalf("conflint -json: exit %d, stderr %q", exit, stderr)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, exit := run(t, "conflint", "-json", "-baseline", base, dir); exit != 0 {
		t.Errorf("conflint against its own baseline: exit %d, stderr %q", exit, stderr)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"kernels":0,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, exit = run(t, "conflint", "-json", "-baseline", empty, dir)
	if exit != 1 {
		t.Errorf("conflint against an empty baseline: exit %d, want 1", exit)
	}
	if !strings.Contains(stderr, "new finding not in baseline") {
		t.Errorf("stderr does not name the new findings: %q", stderr)
	}
}

// copyDir clones a fixture directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestConflintSARIF drives the SARIF mode end to end: a valid 2.1.0
// document with the rule catalog, results, and a padfix fix, and
// byte-identical output across runs and -j settings.
func TestConflintSARIF(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "pathological")
	stdout, stderr, exit := run(t, "conflint", "-sarif", dir)
	if exit != 0 {
		t.Fatalf("conflint -sarif: exit %d, stderr %q", exit, stderr)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("conflint -sarif output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "conflint" {
		t.Fatalf("not a conflint SARIF 2.1.0 document: version %q", doc.Version)
	}
	if len(doc.Runs[0].Tool.Driver.Rules) == 0 || len(doc.Runs[0].Results) == 0 {
		t.Fatal("SARIF document has no rules or no results")
	}
	sawPadfix := false
	for _, r := range doc.Runs[0].Results {
		if r.RuleID == "padfix" {
			sawPadfix = true
		}
	}
	if !sawPadfix {
		t.Error("SARIF results are missing the padfix finding")
	}

	again, _, _ := run(t, "conflint", "-sarif", dir)
	if again != stdout {
		t.Error("-sarif output differs between runs")
	}
	j4, _, _ := run(t, "conflint", "-sarif", "-j", "4", dir)
	if j4 != stdout {
		t.Error("-sarif output differs under -j 4")
	}
}

// TestConflintFixDryRun runs -fix -diff against a copy and checks the
// dry-run contract: a unified diff on stdout, exit 0, tree untouched.
func TestConflintFixDryRun(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, filepath.Join(root, "internal", "specgen", "testdata", "pathological"))
	path := filepath.Join(dir, "pathological.go")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := run(t, "conflint", "-fix", "-diff", dir)
	if exit != 0 {
		t.Fatalf("conflint -fix -diff: exit %d, stderr %q", exit, stderr)
	}
	for _, w := range []string{"--- ", "+++ ", "@@ ", "dry run, tree untouched"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("-fix -diff output is missing %q:\n%s", w, stdout)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("-fix -diff modified the tree")
	}
}

// TestConflintFixClean: on the clean fixture there is nothing to fix;
// -fix -diff prints no hunks and leaves the tree alone.
func TestConflintFixClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, filepath.Join(root, "internal", "specgen", "testdata", "clean"))
	stdout, stderr, exit := run(t, "conflint", "-fix", "-diff", dir)
	if exit != 0 {
		t.Fatalf("conflint -fix -diff on clean fixture: exit %d, stderr %q", exit, stderr)
	}
	if strings.Contains(stdout, "@@ ") {
		t.Errorf("clean fixture produced a diff:\n%s", stdout)
	}
}

// TestConflintFixApplies is the acceptance path at the process level:
// -fix on a pathological copy, then a re-run whose -json document has
// zero static-conflict and padfix findings and no finding at or above
// the conflict threshold.
func TestConflintFixApplies(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, filepath.Join(root, "internal", "specgen", "testdata", "pathological"))
	stdout, stderr, exit := run(t, "conflint", "-fix", dir)
	if exit != 0 {
		t.Fatalf("conflint -fix: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "applied") {
		t.Errorf("-fix did not report applied fixes:\n%s", stdout)
	}

	stdout, stderr, exit = run(t, "conflint", "-json", dir)
	if exit != 0 {
		t.Fatalf("re-lint after fix: exit %d, stderr %q", exit, stderr)
	}
	var doc struct {
		Kernels  int `json:"kernels"`
		Findings []struct {
			Kind        string  `json:"kind"`
			PredictedCF float64 `json:"predicted_cf"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kernels != 3 {
		t.Fatalf("fixed fixture lints %d kernels, want 3", doc.Kernels)
	}
	for _, f := range doc.Findings {
		if f.Kind == "static-conflict" || f.Kind == "padfix" {
			t.Errorf("%s finding survived -fix", f.Kind)
		}
		if f.PredictedCF >= 0.25 {
			t.Errorf("finding %s still predicts CF %.2f >= 0.25 after -fix", f.Kind, f.PredictedCF)
		}
	}
}

// TestConflintUsageErrors pins the exit-code convention: conflicting
// flag combinations are usage errors (exit 2) before any linting runs.
func TestConflintUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "-sarif", "."},
		{"-fix", "-json", "."},
		{"-fix", "-sarif", "."},
		{"-fix", "-baseline", "x.json", "."},
		{"-diff", "."},
		{"-j", "0", "."},
	} {
		_, stderr, exit := run(t, "conflint", args...)
		if exit != 2 {
			t.Errorf("conflint %v: exit %d, want 2 (stderr %q)", args, exit, stderr)
		}
		if stderr == "" {
			t.Errorf("conflint %v: no usage message on stderr", args)
		}
	}
}

// TestConflintCache: a second run against a warm cache must produce
// byte-identical output.
func TestConflintCache(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "specgen", "testdata", "pathological")
	cache := t.TempDir()
	cold, stderr, exit := run(t, "conflint", "-cache", cache, "-json", dir)
	if exit != 0 {
		t.Fatalf("cold cached run: exit %d, stderr %q", exit, stderr)
	}
	entries, err := os.ReadDir(cache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir not populated (err %v)", err)
	}
	warm, stderr, exit := run(t, "conflint", "-cache", cache, "-json", dir)
	if exit != 0 {
		t.Fatalf("warm cached run: exit %d, stderr %q", exit, stderr)
	}
	if cold != warm {
		t.Error("cached output differs from cold run")
	}
}

// TestExperimentsObsArtifacts runs one quick experiment with -out and
// checks that the obs snapshot lands next to the report artifact.
func TestExperimentsObsArtifacts(t *testing.T) {
	out := t.TempDir()
	stdout, stderr, exit := run(t, "experiments", "-quick", "-run", "fig9", "-out", out)
	if exit != 0 {
		t.Fatalf("experiments -quick -run fig9: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "running fig9") {
		t.Errorf("unexpected stdout:\n%s", stdout)
	}
	report, err := os.ReadFile(filepath.Join(out, "fig9.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(report) == 0 {
		t.Error("fig9.txt is empty")
	}
	snap, err := os.ReadFile(filepath.Join(out, "fig9.obs.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{`"counters"`, `"pmu.refs"`, `"phases"`} {
		if !strings.Contains(string(snap), w) {
			t.Errorf("fig9.obs.json is missing %s:\n%s", w, snap)
		}
	}
}
