package conflint

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/staticconf"
)

// StaticConflict reports kernels whose extracted spec the analytic model
// predicts to conflict — the authoritative whole-kernel signal.
var StaticConflict = &Analyzer{
	Name: RuleStaticConflict,
	Doc:  "static analyzer predicts a cache-set conflict for the kernel's affine access spec",
	Run: func(p *Pass) error {
		for _, k := range p.Kernels {
			if k.Static == nil || !k.Static.Conflict {
				continue
			}
			var accs []staticconf.Access
			if k.Ex.Spec != nil {
				accs = k.Ex.Spec.Accesses
			}
			p.Report(Diagnostic{
				Ctor: k.Label, Kernel: k.Ex.Kernel,
				Rule: RuleStaticConflict, Detail: k.Static.Reason,
				Severity: SeverityOf(k.PredCF), PredictedCF: k.PredCF,
				Pos: p.CtorPos(k),
			}, accs...)
		}
		return nil
	},
}

// Pow2Stride reports per-dimension camping on power-of-two strides.
var Pow2Stride = &Analyzer{
	Name: RulePow2Stride,
	Doc:  "a loop dimension walks a power-of-two stride that revisits few sets far beyond associativity",
	Run:  func(p *Pass) error { runCamping(p, true); return nil },
}

// SetCamping reports per-dimension camping on non-power-of-two strides
// (row sizes whose gcd with the set span is still large).
var SetCamping = &Analyzer{
	Name: RuleSetCamping,
	Doc:  "a loop dimension's stride shares a large gcd with the set span, so its walk camps on few sets",
	Run:  func(p *Pass) error { runCamping(p, false); return nil },
}

// runCamping walks every dimension of every access and reports strides
// whose walk revisits few sets many more times than associativity
// covers, split by power-of-two-ness into the two rules.
func runCamping(p *Pass, pow2 bool) {
	for _, k := range p.Kernels {
		if k.Ex.Spec == nil {
			continue
		}
		seen := map[string]bool{}
		for _, a := range k.Ex.Spec.Accesses {
			for _, d := range a.Dims {
				distinct, lines := campingSets(a.Base, d, p.Geom)
				if distinct == 0 {
					continue
				}
				if distinct > p.Geom.Sets/4 || lines/distinct <= p.Geom.Ways {
					continue
				}
				if (d.Stride&(d.Stride-1) == 0) != pow2 {
					continue
				}
				rule := RuleSetCamping
				if pow2 {
					rule = RulePow2Stride
				}
				key := a.Array + "|" + a.Loop
				if seen[key] {
					continue
				}
				seen[key] = true
				p.Report(Diagnostic{
					Ctor: k.Label, Kernel: k.Ex.Kernel, Array: a.Array, Loop: a.Loop,
					Rule: rule,
					Detail: fmt.Sprintf(
						"stride %d walks %d lines over only %d/%d sets (%d lines per set, %d ways)",
						d.Stride, lines, distinct, p.Geom.Sets, lines/distinct, p.Geom.Ways),
					Severity: SeverityOf(k.PredCF), PredictedCF: k.PredCF,
					Pos: arrayPos(p, k, a.Array),
				}, a)
			}
		}
	}
}

// AliasingBases reports distinct arrays in one loop whose bases map to
// the same set and whose identical dims include a span-multiple stride:
// the lockstep walk lands every iteration's lines on one set.
var AliasingBases = &Analyzer{
	Name: RuleAliasingBases,
	Doc:  "distinct arrays share a base set and march in lockstep on a set-span-multiple stride",
	Run: func(p *Pass) error {
		span := int64(p.Geom.Sets * p.Geom.LineSize)
		for _, k := range p.Kernels {
			if k.Ex.Spec == nil {
				continue
			}
			seen := map[string]bool{}
			accs := k.Ex.Spec.Accesses
			for i, a := range accs {
				for _, b := range accs[i+1:] {
					if a.Array == b.Array || a.Loop != b.Loop {
						continue
					}
					if setOf(a.Base, p.Geom) != setOf(b.Base, p.Geom) || !sameDims(a.Dims, b.Dims) {
						continue
					}
					if !hasSpanMultipleDim(a.Dims, span) {
						continue
					}
					pair := a.Array + ", " + b.Array
					key := pair + "|" + a.Loop
					if seen[key] {
						continue
					}
					seen[key] = true
					p.Report(Diagnostic{
						Ctor: k.Label, Kernel: k.Ex.Kernel, Array: pair, Loop: a.Loop,
						Rule: RuleAliasingBases,
						Detail: fmt.Sprintf(
							"bases %#x and %#x share set %d and march in lockstep on a set-span stride",
							a.Base, b.Base, setOf(a.Base, p.Geom)),
						Severity: SeverityOf(k.PredCF), PredictedCF: k.PredCF,
						Pos: arrayPos(p, k, a.Array),
					}, a, b)
				}
			}
		}
		return nil
	},
}

// arrayPos anchors a per-access finding at the allocation call of its
// array inside the kernel's constructor (falling back to the package and
// then to the constructor name), so SARIF consumers land on the layout
// decision rather than the loop that suffers from it.
func arrayPos(p *Pass, k *Kernel, array string) Position {
	if sites := allocSitesFor(p, k, array); len(sites) == 1 {
		return p.Position(sites[0].call.Pos())
	}
	return p.CtorPos(k)
}

// campingSets walks one dimension (capped at one full set-pattern
// period) and reports how many distinct sets and lines it touches.
// Dimensions that cannot camp (sub-line strides, trips the associativity
// covers) report 0.
func campingSets(base uint64, d staticconf.Dim, g mem.Geometry) (distinct, lines int) {
	if d.Stride < int64(g.LineSize) || d.Trip < 2*g.Ways {
		return 0, 0
	}
	steps := d.Trip
	if steps > 4096 {
		steps = 4096 // set patterns repeat within span/gcd(stride, span) ≤ 4096 steps
	}
	sets := map[int]bool{}
	for k := 0; k < steps; k++ {
		sets[setOf(base+uint64(k)*uint64(d.Stride), g)] = true
	}
	return len(sets), steps
}

func setOf(addr uint64, g mem.Geometry) int {
	return int(addr/uint64(g.LineSize)) % g.Sets
}

func hasSpanMultipleDim(dims []staticconf.Dim, span int64) bool {
	for _, d := range dims {
		if d.Stride != 0 && d.Trip >= 2 && d.Stride%span == 0 {
			return true
		}
	}
	return false
}

func sameDims(a, b []staticconf.Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
