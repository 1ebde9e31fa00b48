// Package conflint is the conflict lint's analysis driver: a
// go/analysis-shaped framework that runs modular analyzers over the
// affine access specs specgen extracts from workload packages, and
// emits position-carrying diagnostics with optional machine-applicable
// fixes.
//
// The pipeline per package directory is
//
//	parse (specgen.Load) → extract kernels (one spec per niladic
//	constructor variant) → price each kernel with the closed-form
//	analytic model → run every Analyzer over the shared Pass →
//	apply //ccprof:ignore suppressions → sort diagnostics.
//
// Each Analyzer is one rule: it reads the shared kernel extractions and
// reports Diagnostics; it never re-extracts except to verify a proposed
// fix (the padfix analyzer re-scores candidate source edits through a
// specgen overlay before suggesting them). Severity comes from the
// analytic model's predicted contribution-factor bands, so a finding's
// rank reflects how much of the miss stream the pattern would claim.
//
// Around the driver sit the production surfaces: SARIF 2.1.0 output
// (sarif.go), atomic fix application with dry-run diffs (fix.go),
// fingerprint baselines robust to unrelated edits (baseline.go), and an
// incremental cache keyed on file content hashes (cache.go).
package conflint

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"repro/internal/staticconf"
)

// Rule names, one per analyzer plus the suppression bookkeeping rule.
const (
	// RuleStaticConflict: the analytic model predicts a cache-set
	// conflict for the extracted spec — the authoritative signal.
	RuleStaticConflict = "static-conflict"
	// RulePow2Stride: a loop dimension walks a power-of-two stride that
	// revisits a handful of sets far beyond associativity.
	RulePow2Stride = "pow2-stride"
	// RuleSetCamping: as above with a non-power-of-two stride (row sizes
	// whose gcd with the set span is still large).
	RuleSetCamping = "set-camping"
	// RuleAliasingBases: distinct arrays whose bases map to the same set
	// march in lockstep through a span-multiple stride.
	RuleAliasingBases = "aliasing-bases"
	// RuleFalseSharing: distinct runThread goroutines write different
	// bytes of one cache line.
	RuleFalseSharing = "false-sharing"
	// RulePadFix: a concrete pad edit, verified against the analytic
	// model, would clear a predicted conflict; carries the edit as a
	// suggested fix.
	RulePadFix = "padfix"
	// RuleUnusedSuppression: a //ccprof:ignore directive that matched no
	// finding (or did not parse).
	RuleUnusedSuppression = "unused-suppression"
)

// Position is a real Go source anchor: file path as parsed (relative to
// the lint's working directory when the package argument was relative),
// 1-based line and column, 0-based byte offset.
type Position struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Offset int    `json:"offset"`
}

// TextEdit replaces the byte range [Start, End) of File with NewText.
type TextEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// SuggestedFix is one machine-applicable resolution of a diagnostic:
// all edits are applied together (then gofmt'ed) or not at all.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// Diagnostic is one finding. File/Line carry the kernel-space
// coordinate of the offending loop (the builder's synthetic source,
// matching dynamic reports); Pos anchors the finding in the real Go
// source for SARIF consumers and fix application.
type Diagnostic struct {
	Dir    string `json:"dir"`
	Ctor   string `json:"ctor"` // constructor label, e.g. "Hotspot" or "NewADI/Original"
	Kernel string `json:"kernel"`
	Array  string `json:"array,omitempty"` // "a, b" for pair findings, "" for whole-kernel findings
	Loop   string `json:"loop,omitempty"`  // innermost loop of the offending access
	File   string `json:"file,omitempty"`  // kernel-space file split out of Loop
	Line   int    `json:"line,omitempty"`
	Rule   string `json:"kind"`
	Detail string `json:"detail"`
	// Severity buckets PredictedCF — the closed-form analytic model's
	// predicted contribution factor for the kernel — into high (≥ 0.7),
	// medium (≥ 0.25), low.
	Severity    string  `json:"severity"`
	PredictedCF float64 `json:"predicted_cf"`
	// Fingerprint identifies the finding across runs for the baseline
	// ratchet: a structural hash of (rule, enclosing symbol, access
	// shape), stable under unrelated edits and workload-scale drift.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Pos is the Go source anchor; zero when the package could not be
	// re-anchored (never, in practice).
	Pos   Position       `json:"pos"`
	Fixes []SuggestedFix `json:"fixes,omitempty"`
}

func (d Diagnostic) String() string {
	loc := d.Kernel
	if d.Loop != "" {
		loc += " " + d.Loop
	}
	if d.Array != "" {
		loc += " [" + d.Array + "]"
	}
	return fmt.Sprintf("%s: %s: %s: %s [severity %s, predicted cf %.0f%%]",
		d.Ctor, loc, d.Rule, d.Detail, d.Severity, 100*d.PredictedCF)
}

// SeverityOf buckets a predicted contribution factor into the lint's
// severity bands: a kernel whose conflict signature would dominate the
// miss stream is high, one that merely crosses the conflict threshold
// is medium, anything below is low.
func SeverityOf(cf float64) string {
	switch {
	case cf >= 0.7:
		return "high"
	case cf >= 0.25:
		return "medium"
	default:
		return "low"
	}
}

// fingerprint hashes the identity of a finding for baseline matching:
// the rule, the enclosing symbol (constructor label), the kernel, and a
// structural digest of the implicated accesses. The digest classifies
// each dimension (zero / power-of-two / other stride) rather than
// recording raw strides and trips, so workload-scale changes and
// unrelated source edits do not move the fingerprint.
func fingerprint(rule, ctorLabel, kernel string, accs []staticconf.Access) string {
	h := fnv.New64a()
	for _, s := range []string{rule, ctorLabel, kernel} {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	for _, a := range accs {
		io.WriteString(h, a.Array)
		h.Write([]byte{0})
		io.WriteString(h, strconv.FormatUint(a.Elem, 10))
		for _, d := range a.Dims {
			switch {
			case d.Stride == 0:
				h.Write([]byte{'z'})
			case d.Stride&(d.Stride-1) == 0:
				h.Write([]byte{'p'})
			default:
				h.Write([]byte{'n'})
			}
		}
		if a.Write {
			h.Write([]byte{'w'})
		}
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// legacyKey is the pre-fingerprint baseline identity (location and
// kind), accepted for one release so old baselines keep ratcheting.
func (d Diagnostic) legacyKey() string {
	return strings.Join([]string{d.Dir, d.Ctor, d.Kernel, d.Array, d.Loop, d.Rule}, "|")
}

// ctorBase strips the case-study variant suffix from a constructor
// label: "NewADI/Original" → "NewADI".
func ctorBase(label string) string {
	if i := strings.IndexByte(label, '/'); i >= 0 {
		return label[:i]
	}
	return label
}
