package main

import (
	"fmt"
	"sort"
	"strings"
)

// answer is what the paper (§6) says about one case study. The table is
// written by hand from the paper, never from program output, so a change
// that breaks detection or the advisor shows up as wrong outputs.
type answer struct {
	// targetLoop is the loop the paper names as the conflict site, by
	// its source location; the original variant must flag it.
	targetLoop string
	// padClearsL1 says the paper's fix is a row pad that removes the
	// L1 conflict signature, so the pad advisor must find a pad whose
	// simulated contribution factor drops below 0.25. It is false for
	// ADI, whose 32-byte pad pays off in L2 while its L1 misses stay,
	// and for Kripke, whose fix is a loop interchange, not a pad.
	padClearsL1 bool
}

// answers covers the seven case studies of §6, keyed by workload name.
var answers = map[string]answer{
	"adi":            {targetLoop: "adi.c:8", padClearsL1: false},
	"fft":            {targetLoop: "libmkl(anon):30", padClearsL1: true},
	"himeno":         {targetLoop: "himenoBMT.c:6", padClearsL1: true},
	"kripke":         {targetLoop: "kernel.cpp:5", padClearsL1: false},
	"nw":             {targetLoop: "needle.cpp:189", padClearsL1: true},
	"symmetrization": {targetLoop: "sym.c:4", padClearsL1: true},
	"tinydnn":        {targetLoop: "fully_connected_layer.h:2", padClearsL1: true},
}

// caseNames returns the case-study names in a fixed order.
func caseNames() []string {
	names := make([]string, 0, len(answers))
	for n := range answers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	verdictConflict = "verdict: CONFLICT MISSES DETECTED"
	verdictClean    = "verdict: no significant conflict misses"
)

// checkReport checks a rendered ccprof report against the answer table:
// an original variant must report conflict misses and flag its target
// loop; an optimized variant must report none.
func checkReport(name string, optimized bool, report string) error {
	ans, ok := answers[name]
	if !ok {
		return fmt.Errorf("%s: no reference answer", name)
	}
	variant := "original"
	if optimized {
		variant = "optimized"
	}
	if optimized {
		if !strings.Contains(report, verdictClean) {
			return fmt.Errorf("%s %s: report does not say %q", name, variant, verdictClean)
		}
		return nil
	}
	if !strings.Contains(report, verdictConflict) {
		return fmt.Errorf("%s %s: report does not say %q", name, variant, verdictConflict)
	}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == ans.targetLoop && f[len(f)-1] == "true" {
			return nil
		}
	}
	return fmt.Errorf("%s %s: target loop %s is not flagged as conflicting", name, variant, ans.targetLoop)
}
