package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/staticconf"
	"repro/internal/trace"
)

func init() {
	register("himeno", func() *CaseStudy { return NewHimeno(32, 32, 64, 2) })
}

// NewHimeno builds the Riken HimenoBMT case study (§6.6, Listing 5): the
// 19-point Jacobi kernel of the Poisson-equation fluid benchmark, sweeping
// 3D double arrays p, a[4], b[3], c[3], bnd, wrk1, wrk2 of extent
// ni x nj x nk. With power-of-two plane sizes the i±1 neighbour planes of p
// map to the same cache sets as the centre plane, and the fourteen arrays
// pile onto the same sets too; the conflicts hop between sets as k advances,
// which is why the paper needs high-frequency sampling (short conflict
// periods) to catch them. The optimized variant pads the 1st and 2nd
// dimensions, as the paper does.
func NewHimeno(ni, nj, nk, iters int) *CaseStudy {
	return &CaseStudy{
		Name: "HimenoBMT",
		Desc: fmt.Sprintf("3D Jacobi 19-point stencil, %dx%dx%d doubles, %d iterations", ni, nj, nk, iters),
		// The pads are chosen so that (a) the row stride stops being a
		// multiple of the set span and (b) each array's total size stops
		// being a multiple of it too — otherwise the fourteen arrays
		// remain mutually set-aligned and keep conflicting with each
		// other at every stencil point.
		Original:      himenoProgram(ni, nj, nk, iters, 0, 0),
		Optimized:     himenoProgram(ni, nj, nk, iters, 64, 160),
		TargetLoop:    "himenoBMT.c:6",
		ProfilePeriod: 31, // short conflict periods need high-frequency sampling (§6.6)
		Parallel:      true,
		// One knob for the mechanical search: pad rows by the candidate
		// and planes by the same amount, which breaks both alignments
		// the hand-picked (64, 160) fix targets.
		PadBuilder: func(pad uint64) *Program {
			return himenoProgram(ni, nj, nk, iters, pad, pad)
		},
	}
}

func himenoProgram(ni, nj, nk, iters int, rowPad, planePad uint64) *Program {
	name := "himeno"
	if rowPad > 0 || planePad > 0 {
		name = fmt.Sprintf("himeno-pad%d-%d", rowPad, planePad)
	}
	const src = "himenoBMT.c"

	b := objfile.NewBuilder(name)
	b.Func("jacobi")
	b.Loop(src, 3) // outer iteration loop (n)
	b.Loop(src, 4) // for i
	b.Loop(src, 5) // for j
	b.Loop(src, 6) // for k — Listing 5's loop nest
	ldA := b.Load(src, 7)
	ldP := b.Load(src, 8)
	ldB := b.Load(src, 10)
	ldC := b.Load(src, 19)
	ldWrk1 := b.Load(src, 22)
	ldBnd := b.Load(src, 23)
	stWrk2 := b.Store(src, 25)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	// Copy-back sweep: p = wrk2.
	b.Loop(src, 30)
	ldWrk2 := b.Load(src, 31)
	stP := b.Store(src, 31)
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()

	ar := alloc.NewArena()
	mat := func(label string) *alloc.Matrix3D {
		return alloc.NewMatrix3D(ar, label, ni, nj, nk, 8, rowPad, planePad)
	}
	p := mat("p")
	var a [4]*alloc.Matrix3D
	for i := range a {
		a[i] = mat("a")
	}
	var bm [3]*alloc.Matrix3D
	for i := range bm {
		bm[i] = mat("b")
	}
	var cm [3]*alloc.Matrix3D
	for i := range cm {
		cm[i] = mat("c")
	}
	bnd := mat("bnd")
	wrk1 := mat("wrk1")
	wrk2 := mat("wrk2")

	// Static access spec: one access per array at the stencil centre,
	// plus p's plane and row neighbours (the k±1 neighbours share the
	// centre's lines). The reuse window is one k-row; all fourteen
	// unpadded arrays are mutually set-aligned because their sizes are
	// multiples of the set span.
	rowS, planeS := int64(p.RowStride()), int64(p.PlaneStride())
	inner := func(base uint64) staticconf.Access {
		return acc("", "himenoBMT.c:6", base, 8, 1,
			dim(0, iters), dim(planeS, ni-2), dim(rowS, nj-2), dim(8, nk-2))
	}
	named := func(label string, base uint64) staticconf.Access {
		a := inner(base)
		a.Array = label
		return a
	}
	sp := spec(name,
		named("p", p.At(1, 1, 1)),
		named("p", p.At(2, 1, 1)),
		named("p", p.At(0, 1, 1)),
		named("p", p.At(1, 2, 1)),
		named("p", p.At(1, 0, 1)),
		named("a", a[0].At(1, 1, 1)),
		named("a", a[1].At(1, 1, 1)),
		named("a", a[2].At(1, 1, 1)),
		named("a", a[3].At(1, 1, 1)),
		named("b", bm[0].At(1, 1, 1)),
		named("b", bm[1].At(1, 1, 1)),
		named("b", bm[2].At(1, 1, 1)),
		named("c", cm[0].At(1, 1, 1)),
		named("c", cm[1].At(1, 1, 1)),
		named("c", cm[2].At(1, 1, 1)),
		named("bnd", bnd.At(1, 1, 1)),
		named("wrk1", wrk1.At(1, 1, 1)),
		named("wrk2", wrk2.At(1, 1, 1)),
	)

	// Real Jacobi values (HimenoBMT's classic initialization): pressure
	// p = (i/(ni-1))^2, coefficients a = {1,1,1,1/6}, b = c = 0, bnd = 1.
	// The kernel computes gosa (the squared-residual sum) per iteration,
	// which must decay as the solver converges.
	lazyVals := lazy(func() *himenoValues { return newHimenoValues(ni, nj, nk) })
	var gosa float64

	p2 := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, compute bool, sink *trace.Emitter) {
			var vals *himenoValues
			if compute {
				vals = lazyVals()
			}
			lo, hi := span(ni-2, tid, threads)
			lo, hi = lo+1, hi+1
			ld := func(ip uint64, addr uint64) { sink.Ref(trace.Ref{IP: ip, Addr: addr}) }
			for n := 0; n < iters; n++ {
				if compute {
					gosa = 0
				}
				for i := lo; i < hi; i++ {
					for j := 1; j < nj-1; j++ {
						for k := 1; k < nk-1; k++ {
							// s0 = a0*p(i+1,j,k) + a1*p(i,j+1,k) + a2*p(i,j,k+1)
							ld(ldA, a[0].At(i, j, k))
							ld(ldP, p.At(i+1, j, k))
							ld(ldA, a[1].At(i, j, k))
							ld(ldP, p.At(i, j+1, k))
							ld(ldA, a[2].At(i, j, k))
							ld(ldP, p.At(i, j, k+1))
							// + b0*(p(i+1,j+1,k) - p(i+1,j-1,k) - p(i-1,j+1,k) + p(i-1,j-1,k))
							ld(ldB, bm[0].At(i, j, k))
							ld(ldP, p.At(i+1, j+1, k))
							ld(ldP, p.At(i+1, j-1, k))
							ld(ldP, p.At(i-1, j+1, k))
							ld(ldP, p.At(i-1, j-1, k))
							// + b1*(p(i,j+1,k+1) - p(i,j-1,k+1) - p(i,j+1,k-1) + p(i,j-1,k-1))
							ld(ldB, bm[1].At(i, j, k))
							ld(ldP, p.At(i, j+1, k+1))
							ld(ldP, p.At(i, j-1, k+1))
							ld(ldP, p.At(i, j+1, k-1))
							ld(ldP, p.At(i, j-1, k-1))
							// + b2*(p(i+1,j,k+1) - p(i-1,j,k+1) - p(i+1,j,k-1) + p(i-1,j,k-1))
							ld(ldB, bm[2].At(i, j, k))
							ld(ldP, p.At(i+1, j, k+1))
							ld(ldP, p.At(i-1, j, k+1))
							ld(ldP, p.At(i+1, j, k-1))
							ld(ldP, p.At(i-1, j, k-1))
							// + c0*p(i-1,j,k) + c1*p(i,j-1,k) + c2*p(i,j,k-1) + wrk1
							ld(ldC, cm[0].At(i, j, k))
							ld(ldP, p.At(i-1, j, k))
							ld(ldC, cm[1].At(i, j, k))
							ld(ldP, p.At(i, j-1, k))
							ld(ldC, cm[2].At(i, j, k))
							ld(ldP, p.At(i, j, k-1))
							ld(ldWrk1, wrk1.At(i, j, k))
							// ss = (s0*a3 - p)*bnd; wrk2 = p + omega*ss
							ld(ldA, a[3].At(i, j, k))
							ld(ldP, p.At(i, j, k))
							ld(ldBnd, bnd.At(i, j, k))
							sink.Ref(trace.Ref{IP: stWrk2, Addr: wrk2.At(i, j, k), Write: true})
							if compute {
								gosa += vals.step(i, j, k)
							}
						}
					}
				}
				// p = wrk2 copy-back.
				for i := lo; i < hi; i++ {
					for j := 1; j < nj-1; j++ {
						for k := 1; k < nk-1; k++ {
							ld(ldWrk2, wrk2.At(i, j, k))
							sink.Ref(trace.Ref{IP: stP, Addr: p.At(i, j, k), Write: true})
							if compute {
								vals.p[vals.idx(i, j, k)] = vals.wrk2[vals.idx(i, j, k)]
							}
						}
					}
				}
			}
		},
	}
	p2.Check = func() float64 { return gosa }
	return p2
}

// himenoValues carries the solver's element storage.
type himenoValues struct {
	nj, nk         int
	p, wrk1, wrk2  []float64
	bnd            []float64
	a0, a1, a2, a3 []float64
	b0, b1, b2     []float64
	c0, c1, c2     []float64
}

func newHimenoValues(ni, nj, nk int) *himenoValues {
	n := ni * nj * nk
	v := &himenoValues{nj: nj, nk: nk}
	fill := func(val float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = val
		}
		return s
	}
	v.p = make([]float64, n)
	for i := 0; i < ni; i++ {
		pi := float64(i) * float64(i) / (float64(ni-1) * float64(ni-1))
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				v.p[v.idx(i, j, k)] = pi
			}
		}
	}
	v.wrk1 = fill(0)
	v.wrk2 = fill(0)
	v.bnd = fill(1)
	v.a0, v.a1, v.a2, v.a3 = fill(1), fill(1), fill(1), fill(1.0/6.0)
	v.b0, v.b1, v.b2 = fill(0), fill(0), fill(0)
	v.c0, v.c1, v.c2 = fill(1), fill(1), fill(1)
	return v
}

func (v *himenoValues) idx(i, j, k int) int { return (i*v.nj+j)*v.nk + k }

// step performs the 19-point update at (i,j,k), writes wrk2, and returns
// the squared residual contribution (Listing 5's ss*ss).
func (v *himenoValues) step(i, j, k int) float64 {
	const omega = 0.8
	id := v.idx
	p := v.p
	s0 := v.a0[id(i, j, k)]*p[id(i+1, j, k)] +
		v.a1[id(i, j, k)]*p[id(i, j+1, k)] +
		v.a2[id(i, j, k)]*p[id(i, j, k+1)] +
		v.b0[id(i, j, k)]*(p[id(i+1, j+1, k)]-p[id(i+1, j-1, k)]-p[id(i-1, j+1, k)]+p[id(i-1, j-1, k)]) +
		v.b1[id(i, j, k)]*(p[id(i, j+1, k+1)]-p[id(i, j-1, k+1)]-p[id(i, j+1, k-1)]+p[id(i, j-1, k-1)]) +
		v.b2[id(i, j, k)]*(p[id(i+1, j, k+1)]-p[id(i-1, j, k+1)]-p[id(i+1, j, k-1)]+p[id(i-1, j, k-1)]) +
		v.c0[id(i, j, k)]*p[id(i-1, j, k)] +
		v.c1[id(i, j, k)]*p[id(i, j-1, k)] +
		v.c2[id(i, j, k)]*p[id(i, j, k-1)] +
		v.wrk1[id(i, j, k)]
	ss := (s0*v.a3[id(i, j, k)] - p[id(i, j, k)]) * v.bnd[id(i, j, k)]
	v.wrk2[id(i, j, k)] = p[id(i, j, k)] + omega*ss
	return ss * ss
}
