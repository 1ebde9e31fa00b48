package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("tinydnn", func() *CaseStudy { return NewTinyDNN(256, 1024, 4) })
}

// NewTinyDNN builds the Tiny-DNN case study (§6.4, Listing 3): the forward
// propagation of a fully-connected layer,
//
//	for i in out: for c in in: a[i] += W[c*out + i] * in[c]
//
// The weight matrix W is read down a column (fixed i, c varying), a stride
// of 4*out bytes; with out a power of two large enough, every access lands
// in one cache set, producing the short RCDs CCProf reports. The optimized
// variant pads each W row by 64 bytes. batches repeats the layer, modelling
// several training iterations.
func NewTinyDNN(in, out, batches int) *CaseStudy {
	return &CaseStudy{
		Name:          "Tiny_DNN",
		Desc:          fmt.Sprintf("fully-connected forward layer %d->%d, %d batches", in, out, batches),
		Original:      tinyDNNProgram(in, out, batches, 0),
		Optimized:     tinyDNNProgram(in, out, batches, 64),
		TargetLoop:    "fully_connected_layer.h:2",
		ProfilePeriod: 171,
		Parallel:      true,
		PadBuilder:    func(pad uint64) *Program { return tinyDNNProgram(in, out, batches, pad) },
	}
}

// TinyDNNAt builds the forward-layer kernel with an arbitrary W row pad,
// for pad-search tooling (see examples/advisor).
func TinyDNNAt(in, out, batches int, pad uint64) *Program {
	return tinyDNNProgram(in, out, batches, pad)
}

func tinyDNNProgram(in, out, batches int, pad uint64) *Program {
	name := "tinydnn"
	if pad > 0 {
		name = fmt.Sprintf("tinydnn-pad%d", pad)
	}
	const src = "fully_connected_layer.h"

	b := objfile.NewBuilder(name)
	b.Func("forward_propagation")
	b.Loop(src, 0) // batch loop
	b.Loop(src, 1) // for i (output neurons)
	b.Loop(src, 2) // for c (input neurons) — Listing 3's loop
	ldW := b.Load(src, 2)
	ldIn := b.Load(src, 2)
	b.EndLoop()
	stA := b.Store(src, 3) // a[i] written once per neuron
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()

	ar := alloc.NewArena()
	w := alloc.NewMatrix2D(ar, "W", in, out, 4, pad)
	inVec := alloc.NewVector(ar, "in", in, 4)
	aVec := alloc.NewVector(ar, "a", out, 4)

	// Static access spec: W is read down a column (stride = one row),
	// Listing 3's pathology; the input vector is cache-resident reuse.
	rs := int64(w.RowStride())
	sp := spec(name,
		acc("W", "fully_connected_layer.h:2", w.At(0, 0), 4, 1,
			dim(0, batches), dim(4, out), dim(rs, in)),
		acc("in", "fully_connected_layer.h:2", inVec.At(0), 4, 1,
			dim(0, batches), dim(0, out), dim(4, in)),
		acc("a", "fully_connected_layer.h:3", aVec.At(0), 4, 1,
			dim(0, batches), dim(4, out)),
	)

	// Real layer values: weights and activations as float32, like
	// tiny-dnn's vec_t.
	vals := lazy(func() *dnnVals {
		v := &dnnVals{
			w:  make([]float32, in*out),
			in: make([]float32, in),
			a:  make([]float32, out),
		}
		rng := stats.NewRand(777)
		for i := range v.w {
			v.w[i] = float32(rng.Float64()) - 0.5
		}
		for i := range v.in {
			v.in[i] = float32(rng.Float64())
		}
		return v
	})

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, compute bool, sink *trace.Emitter) {
			var wVals, inVals, aVals []float32
			if compute {
				v := vals()
				wVals, inVals, aVals = v.w, v.in, v.a
			}
			lo, hi := span(out, tid, threads)
			for batch := 0; batch < batches; batch++ {
				for i := lo; i < hi; i++ {
					var acc float32
					for c := 0; c < in; c++ {
						sink.Ref(trace.Ref{IP: ldW, Addr: w.At(c, i)})
						sink.Ref(trace.Ref{IP: ldIn, Addr: inVec.At(c)})
						if compute {
							acc += wVals[c*out+i] * inVals[c]
						}
					}
					sink.Ref(trace.Ref{IP: stA, Addr: aVec.At(i), Write: true})
					if compute {
						aVals[i] = acc
					}
				}
			}
		},
	}
	p.Check = func() float64 {
		var sum float64
		for _, v := range vals().a {
			sum += float64(v)
		}
		return sum
	}
	return p
}

type dnnVals struct{ w, in, a []float32 }
