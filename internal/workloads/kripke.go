package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/staticconf"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("kripke", func() *CaseStudy { return NewKripke(128, 64, 32) })
}

// NewKripke builds the Kripke case study (§6.5, Listing 4): the particle
// edit kernel of LLNL's Sn transport mini-app, reducing the angular flux
//
//	part += w[d] * psi(g,d,z) * vol[z]
//
// psi is laid out group-major ((g,d,z) with z innermost), but the original
// kernel iterates z { d { g } }: the innermost g increment strides by
// directions*zones*8 bytes — with power-of-two extents, the same cache set
// every time. The optimized variant is the paper's fix: loop interchange to
// g { d { z } }, making psi access fully sequential (no padding needed).
func NewKripke(zones, directions, groups int) *CaseStudy {
	return &CaseStudy{
		Name: "Kripke",
		Desc: fmt.Sprintf("Sn particle edit kernel, %d zones x %d directions x %d groups",
			zones, directions, groups),
		Original:      kripkeProgram(zones, directions, groups, false, 0),
		Optimized:     kripkeProgram(zones, directions, groups, true, 0),
		TargetLoop:    "kernel.cpp:5",
		ProfilePeriod: 171,
		Parallel:      true,
		// The paper's fix is the interchange, but padding psi's z-rows
		// breaks the same power-of-two alignment; that is the knob the
		// advisor's mechanical search can turn.
		PadBuilder: func(pad uint64) *Program {
			return kripkeProgram(zones, directions, groups, false, pad)
		},
	}
}

func kripkeProgram(zones, directions, groups int, interchanged bool, rowPad uint64) *Program {
	name := "kripke"
	if interchanged {
		name = "kripke-interchanged"
	} else if rowPad > 0 {
		name = fmt.Sprintf("kripke-pad%d", rowPad)
	}
	const src = "kernel.cpp"

	b := objfile.NewBuilder(name)
	b.Func("particleEdit")
	var ldVol, ldW, ldPsi uint64
	if !interchanged {
		b.Loop(src, 1) // for z
		ldVol = b.Load(src, 2)
		b.Loop(src, 3) // for d
		ldW = b.Load(src, 4)
		b.Loop(src, 5) // for g — the conflicting loop
		ldPsi = b.Load(src, 6)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	} else {
		b.Loop(src, 1) // for g
		b.Loop(src, 3) // for d
		ldW = b.Load(src, 4)
		b.Loop(src, 5) // for z
		ldPsi = b.Load(src, 6)
		ldVol = b.Load(src, 6)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
	}
	bin := b.Finish()

	ar := alloc.NewArena()
	// psi(g,d,z): g-major 3D layout, z innermost.
	psi := alloc.NewMatrix3D(ar, "psi", groups, directions, zones, 8, rowPad, 0)
	vol := alloc.NewVector(ar, "volume", zones, 8)
	w := alloc.NewVector(ar, "dirs.w", directions, 16) // direction struct, w field

	// Static access spec. The original order z{d{g}} makes psi's inner
	// stride a whole (g,d) plane — with power-of-two extents, the same
	// set every iteration. The interchange makes psi streaming.
	rowS, planeS := int64(psi.RowStride()), int64(psi.PlaneStride())
	var sp *staticconf.Spec
	if !interchanged {
		sp = spec(name,
			acc("psi", "kernel.cpp:5", psi.At(0, 0, 0), 8, 1,
				dim(8, zones), dim(rowS, directions), dim(planeS, groups)),
			acc("volume", "kernel.cpp:1", vol.At(0), 8, 1, dim(8, zones)),
			acc("dirs.w", "kernel.cpp:3", w.At(0), 8, 1, dim(0, zones), dim(16, directions)),
		)
	} else {
		sp = spec(name,
			acc("psi", "kernel.cpp:5", psi.At(0, 0, 0), 8, 1,
				dim(planeS, groups), dim(rowS, directions), dim(8, zones)),
			acc("volume", "kernel.cpp:5", vol.At(0), 8, 1,
				dim(0, groups), dim(0, directions), dim(8, zones)),
			acc("dirs.w", "kernel.cpp:3", w.At(0), 8, 1, dim(0, groups), dim(16, directions)),
		)
	}

	// Real particle-edit values: the kernel computes the total particle
	// count, part = sum w[d] * psi[g][d][z] * vol[z]. Loop interchange
	// must not change the result (up to FP reassociation).
	vals := lazy(func() *kripkeVals {
		v := &kripkeVals{}
		v.psi, v.vol, v.w = kripkeValues(zones, directions, groups)
		return v
	})
	var part float64

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, sink *trace.Emitter) {
			compute := threads == 1
			var psiVals, volVals, wVals []float64
			if compute {
				v := vals()
				psiVals, volVals, wVals = v.psi, v.vol, v.w
				part = 0
			}
			at := func(g, d, z int) float64 {
				return psiVals[(g*directions+d)*zones+z]
			}
			if !interchanged {
				lo, hi := span(zones, tid, threads)
				for z := lo; z < hi; z++ {
					sink.Ref(trace.Ref{IP: ldVol, Addr: vol.At(z)})
					for d := 0; d < directions; d++ {
						sink.Ref(trace.Ref{IP: ldW, Addr: w.At(d)})
						for g := 0; g < groups; g++ {
							sink.Ref(trace.Ref{IP: ldPsi, Addr: psi.At(g, d, z)})
							if compute {
								part += wVals[d] * at(g, d, z) * volVals[z]
							}
						}
					}
				}
				return
			}
			lo, hi := span(groups, tid, threads)
			for g := lo; g < hi; g++ {
				for d := 0; d < directions; d++ {
					sink.Ref(trace.Ref{IP: ldW, Addr: w.At(d)})
					for z := 0; z < zones; z++ {
						sink.Ref(trace.Ref{IP: ldPsi, Addr: psi.At(g, d, z)})
						sink.Ref(trace.Ref{IP: ldVol, Addr: vol.At(z)})
						if compute {
							part += wVals[d] * at(g, d, z) * volVals[z]
						}
					}
				}
			}
		},
	}
	p.Check = func() float64 { return part }
	return p
}

type kripkeVals struct{ psi, vol, w []float64 }

// kripkeValues generates the deterministic inputs shared by both loop
// orders and the reference sum.
func kripkeValues(zones, directions, groups int) (psi, vol, w []float64) {
	rng := stats.NewRand(4242)
	psi = make([]float64, groups*directions*zones)
	for i := range psi {
		psi[i] = rng.Float64()
	}
	vol = make([]float64, zones)
	for i := range vol {
		vol[i] = 0.5 + rng.Float64()
	}
	w = make([]float64, directions)
	for i := range w {
		w[i] = rng.Float64() / float64(directions)
	}
	return
}

// KripkeReference computes the particle total naively for verification.
func KripkeReference(zones, directions, groups int) float64 {
	psi, vol, w := kripkeValues(zones, directions, groups)
	var part float64
	for g := 0; g < groups; g++ {
		for d := 0; d < directions; d++ {
			for z := 0; z < zones; z++ {
				part += w[d] * psi[(g*directions+d)*zones+z] * vol[z]
			}
		}
	}
	return part
}
