package workloads

import (
	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/staticconf"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RodiniaSuite returns the 18 Rodinia-style kernels of the Figure 7 sweep:
// Needleman-Wunsch (the one the paper finds conflict-ridden, at reduced
// scale) plus 17 kernels that mimic the dominant loop and data layout of
// the other Rodinia benchmarks. Those 17 are conflict-free by construction
// — streaming sweeps, stencils with few live rows, or non-power-of-two
// strides — matching the paper's finding that only NW shows a significant
// short-RCD contribution.
func RodiniaSuite() []*Program {
	return []*Program{
		nwProgram(512, 16, 0, 0),
		Backprop(),
		BFS(),
		BTree(),
		CFD(),
		Heartwall(),
		Hotspot(),
		Hotspot3D(),
		Kmeans(),
		LavaMD(),
		Leukocyte(),
		LUD(),
		Myocyte(),
		NN(),
		ParticleFilter(),
		Pathfinder(),
		SRAD(),
		Streamcluster(),
	}
}

// simpleKernel removes the boilerplate shared by the Rodinia kernels: it
// builds a binary with the requested nested loops, allocates via setup, and
// wires the emit closure as the (sequential) run function. The builder also
// hands back the kernel's static access spec (nil to abstain — e.g. when
// the access pattern is too data-dependent to approximate affinely).
func simpleKernel(name, file string, build func(b *objfile.Builder, ar *alloc.Arena) (func(sink *trace.Emitter), *staticconf.Spec)) *Program {
	b := objfile.NewBuilder(name)
	b.Func("main")
	ar := alloc.NewArena()
	run, sp := build(b, ar)
	return &Program{
		Name:   name,
		Binary: b.Finish(),
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, _ bool, sink *trace.Emitter) {
			if tid == 0 {
				run(sink)
			}
		},
	}
}

// Backprop mimics Rodinia backprop's layer-forward loop: a column walk of a
// weight matrix whose 17-wide rows (the benchmark's hidden size + 1) stride
// by a non-power-of-two amount, spreading accesses over all sets.
func Backprop() *Program {
	const in, hid = 4096, 17
	return simpleKernel("backprop", "backprop.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("backprop.c", 1) // for j (hidden)
		b.Loop("backprop.c", 2) // for k (input)
		ldW := b.Load("backprop.c", 3)
		ldIn := b.Load("backprop.c", 3)
		b.EndLoop()
		stH := b.Store("backprop.c", 5)
		b.EndLoop()
		w := alloc.NewMatrix2D(ar, "w", in+1, hid, 4, 0)
		input := alloc.NewVector(ar, "input_units", in+1, 4)
		hidden := alloc.NewVector(ar, "hidden_units", hid, 4)
		rs := int64(w.RowStride())
		sp := spec("backprop",
			acc("w", "backprop.c:2", w.At(0, 0), 4, 1, dim(4, hid), dim(rs, in+1)),
			acc("input_units", "backprop.c:2", input.At(0), 4, 1, dim(0, hid), dim(4, in+1)),
			acc("hidden_units", "backprop.c:1", hidden.At(0), 4, 1, dim(4, hid)),
		)
		return func(sink *trace.Emitter) {
			for j := 0; j < hid; j++ {
				for k := 0; k <= in; k++ {
					sink.Ref(trace.Ref{IP: ldW, Addr: w.At(k, j)})
					sink.Ref(trace.Ref{IP: ldIn, Addr: input.At(k)})
				}
				sink.Ref(trace.Ref{IP: stH, Addr: hidden.At(j), Write: true})
			}
		}, sp
	})
}

// BFS mimics Rodinia bfs: frontier expansion over a CSR graph with
// pseudo-random neighbour targets. The spec approximates the random
// gathers as streams over the target arrays.
func BFS() *Program {
	const nodes, degree = 16384, 6
	return simpleKernel("bfs", "bfs.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("bfs.c", 1) // over frontier nodes
		ldNode := b.Load("bfs.c", 2)
		b.Loop("bfs.c", 3) // over edges
		ldEdge := b.Load("bfs.c", 4)
		ldVisited := b.Load("bfs.c", 5)
		stCost := b.Store("bfs.c", 6)
		b.EndLoop()
		b.EndLoop()
		graph := alloc.NewVector(ar, "h_graph_nodes", nodes, 8)
		edges := alloc.NewVector(ar, "h_graph_edges", nodes*degree, 4)
		visited := alloc.NewVector(ar, "h_graph_visited", nodes, 1)
		cost := alloc.NewVector(ar, "h_cost", nodes, 4)
		sp := spec("bfs",
			acc("h_graph_nodes", "bfs.c:1", graph.At(0), 8, 1, dim(8, nodes)),
			acc("h_graph_edges", "bfs.c:3", edges.At(0), 4, 1, dim(4, nodes*degree)),
			accApprox("h_graph_visited", "bfs.c:3", visited.At(0), 1, 1, dim(1, nodes)),
			accApprox("h_cost", "bfs.c:3", cost.At(0), 4, 1, dim(4, nodes)),
		)
		rng := stats.NewRand(101)
		return func(sink *trace.Emitter) {
			for v := 0; v < nodes; v++ {
				sink.Ref(trace.Ref{IP: ldNode, Addr: graph.At(v)})
				for e := 0; e < degree; e++ {
					sink.Ref(trace.Ref{IP: ldEdge, Addr: edges.At(v*degree + e)})
					n := rng.Intn(nodes)
					sink.Ref(trace.Ref{IP: ldVisited, Addr: visited.At(n)})
					sink.Ref(trace.Ref{IP: stCost, Addr: cost.At(n), Write: true})
				}
			}
		}, sp
	})
}

// BTree mimics Rodinia b+tree: repeated root-to-leaf descents through
// order-16 nodes laid out level by level. The spec approximates the random
// descents as a stream over the node pool with a per-node key scan.
func BTree() *Program {
	const levels, fanout, queries = 5, 16, 4000
	return simpleKernel("b+tree", "btree.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("btree.c", 1) // per query
		b.Loop("btree.c", 2) // per level
		b.Loop("btree.c", 3) // key scan within node
		ldKey := b.Load("btree.c", 4)
		b.EndLoop()
		ldChild := b.Load("btree.c", 6)
		b.EndLoop()
		b.EndLoop()
		nodes := 0
		per := 1
		for l := 0; l < levels; l++ {
			nodes += per
			per *= fanout
		}
		const nodeBytes = 16*8 + 17*8 // keys + child pointers
		tree := alloc.NewVector(ar, "knodes", nodes, nodeBytes)
		sp := spec("b+tree",
			accApprox("knodes", "btree.c:3", tree.At(0), 8, 1,
				dim(nodeBytes, queries*levels), dim(8, fanout/2)),
		)
		rng := stats.NewRand(102)
		return func(sink *trace.Emitter) {
			for q := 0; q < queries; q++ {
				node, base, width := 0, 0, 1
				for l := 0; l < levels; l++ {
					addr := tree.At(base + node)
					for k := 0; k < fanout/2; k++ { // binary-ish scan
						sink.Ref(trace.Ref{IP: ldKey, Addr: addr + uint64(k*8)})
					}
					sink.Ref(trace.Ref{IP: ldChild, Addr: addr + 16*8})
					base += width
					width *= fanout
					node = node*fanout + rng.Intn(fanout)
				}
			}
		}, sp
	})
}

// CFD mimics Rodinia cfd (euler3d): per-cell flux computation reading five
// flow variables of the cell and of four neighbours through an indirection
// table. The spec approximates the neighbour gather as a row stream.
func CFD() *Program {
	const cells, vars = 8192, 5
	return simpleKernel("cfd", "euler3d.cpp", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("euler3d.cpp", 1) // per cell
		b.Loop("euler3d.cpp", 2) // per neighbour
		ldNb := b.Load("euler3d.cpp", 3)
		b.Loop("euler3d.cpp", 4) // per variable
		ldVar := b.Load("euler3d.cpp", 5)
		b.EndLoop()
		b.EndLoop()
		stFlux := b.Store("euler3d.cpp", 8)
		b.EndLoop()
		neighbors := alloc.NewVector(ar, "elements_surrounding_elements", cells*4, 4)
		variables := alloc.NewMatrix2D(ar, "variables", cells, vars, 8, 0)
		fluxes := alloc.NewMatrix2D(ar, "fluxes", cells, vars, 8, 0)
		rsV := int64(variables.RowStride())
		sp := spec("cfd",
			acc("elements_surrounding_elements", "euler3d.cpp:2", neighbors.At(0), 4, 1, dim(4, cells*4)),
			accApprox("variables", "euler3d.cpp:4", variables.At(0, 0), 8, 1,
				dim(rsV, cells), dim(0, 4), dim(8, vars)),
			acc("fluxes", "euler3d.cpp:1", fluxes.At(0, 0), 8, 1, dim(int64(fluxes.RowStride()), cells)),
		)
		rng := stats.NewRand(103)
		return func(sink *trace.Emitter) {
			for c := 0; c < cells; c++ {
				for nb := 0; nb < 4; nb++ {
					sink.Ref(trace.Ref{IP: ldNb, Addr: neighbors.At(c*4 + nb)})
					other := rng.Intn(cells)
					for v := 0; v < vars; v++ {
						sink.Ref(trace.Ref{IP: ldVar, Addr: variables.At(other, v)})
					}
				}
				sink.Ref(trace.Ref{IP: stFlux, Addr: fluxes.At(c, 0), Write: true})
			}
		}, sp
	})
}

// Heartwall mimics Rodinia heartwall: template correlation of a 41x41
// window slid over image rows (both strides non-power-of-two).
func Heartwall() *Program {
	const imgW, imgH, tpl, steps = 609, 590, 41, 300
	return simpleKernel("heartwall", "heartwall.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("heartwall.c", 1) // per tracking point
		b.Loop("heartwall.c", 2) // template row
		b.Loop("heartwall.c", 3) // template col
		ldImg := b.Load("heartwall.c", 4)
		ldTpl := b.Load("heartwall.c", 4)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		img := alloc.NewMatrix2D(ar, "frame", imgH, imgW, 4, 0)
		tplM := alloc.NewMatrix2D(ar, "template", tpl, tpl, 4, 0)
		rsI := int64(img.RowStride())
		rsT := int64(tplM.RowStride())
		sp := spec("heartwall",
			accApprox("frame", "heartwall.c:3", img.At(0, 0), 4, 2,
				dim(0, steps), dim(rsI, tpl), dim(4, tpl)),
			acc("template", "heartwall.c:3", tplM.At(0, 0), 4, 3,
				dim(0, steps), dim(rsT, tpl), dim(4, tpl)),
		)
		rng := stats.NewRand(104)
		return func(sink *trace.Emitter) {
			for s := 0; s < steps; s++ {
				r0, c0 := rng.Intn(imgH-tpl), rng.Intn(imgW-tpl)
				for i := 0; i < tpl; i++ {
					for j := 0; j < tpl; j++ {
						sink.Ref(trace.Ref{IP: ldImg, Addr: img.At(r0+i, c0+j)})
						sink.Ref(trace.Ref{IP: ldTpl, Addr: tplM.At(i, j)})
					}
				}
			}
		}, sp
	})
}

// Hotspot mimics Rodinia hotspot: a 5-point 2D stencil over temperature
// and power grids — row-major streaming with only three live rows.
func Hotspot() *Program {
	const n = 512
	return simpleKernel("hotspot", "hotspot.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("hotspot.c", 1) // for r
		b.Loop("hotspot.c", 2) // for c
		ldT := b.Load("hotspot.c", 3)
		ldP := b.Load("hotspot.c", 4)
		stR := b.Store("hotspot.c", 5)
		b.EndLoop()
		b.EndLoop()
		temp := alloc.NewMatrix2D(ar, "temp", n, n, 4, 0)
		power := alloc.NewMatrix2D(ar, "power", n, n, 4, 0)
		result := alloc.NewMatrix2D(ar, "result", n, n, 4, 0)
		rs := int64(temp.RowStride())
		inner := n - 2
		stencil := func(base uint64) staticconf.Access {
			return acc("temp", "hotspot.c:2", base, 4, 1, dim(rs, inner), dim(4, inner))
		}
		sp := spec("hotspot",
			stencil(temp.At(1, 1)), stencil(temp.At(0, 1)), stencil(temp.At(2, 1)),
			stencil(temp.At(1, 0)), stencil(temp.At(1, 2)),
			acc("power", "hotspot.c:2", power.At(1, 1), 4, 1, dim(rs, inner), dim(4, inner)),
			acc("result", "hotspot.c:2", result.At(1, 1), 4, 1, dim(rs, inner), dim(4, inner)),
		)
		return func(sink *trace.Emitter) {
			for r := 1; r < n-1; r++ {
				for c := 1; c < n-1; c++ {
					for _, addr := range []uint64{
						temp.At(r, c), temp.At(r-1, c), temp.At(r+1, c),
						temp.At(r, c-1), temp.At(r, c+1),
					} {
						sink.Ref(trace.Ref{IP: ldT, Addr: addr})
					}
					sink.Ref(trace.Ref{IP: ldP, Addr: power.At(r, c)})
					sink.Ref(trace.Ref{IP: stR, Addr: result.At(r, c), Write: true})
				}
			}
		}, sp
	})
}

// Hotspot3D mimics Rodinia hotspot3D: a 7-point stencil over a shallow 3D
// grid (few live planes, streaming k).
func Hotspot3D() *Program {
	const nx, ny, nz = 128, 128, 8
	return simpleKernel("hotspot3D", "3D.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("3D.c", 1)
		b.Loop("3D.c", 2)
		b.Loop("3D.c", 3)
		ldT := b.Load("3D.c", 4)
		stR := b.Store("3D.c", 5)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		tIn := alloc.NewMatrix3D(ar, "tIn", nz, ny, nx, 4, 0, 0)
		tOut := alloc.NewMatrix3D(ar, "tOut", nz, ny, nx, 4, 0, 0)
		rs := int64(tIn.RowStride())
		ps := int64(tIn.PlaneStride())
		ix, iy, iz := nx-2, ny-2, nz-2
		point := func(array string, base uint64) staticconf.Access {
			return acc(array, "3D.c:3", base, 4, 1, dim(ps, iz), dim(rs, iy), dim(4, ix))
		}
		sp := spec("hotspot3D",
			point("tIn", tIn.At(1, 1, 1)),
			point("tIn", tIn.At(0, 1, 1)), point("tIn", tIn.At(2, 1, 1)),
			point("tIn", tIn.At(1, 0, 1)), point("tIn", tIn.At(1, 2, 1)),
			point("tIn", tIn.At(1, 1, 0)), point("tIn", tIn.At(1, 1, 2)),
			point("tOut", tOut.At(1, 1, 1)),
		)
		return func(sink *trace.Emitter) {
			for z := 1; z < nz-1; z++ {
				for y := 1; y < ny-1; y++ {
					for x := 1; x < nx-1; x++ {
						for _, addr := range []uint64{
							tIn.At(z, y, x), tIn.At(z-1, y, x), tIn.At(z+1, y, x),
							tIn.At(z, y-1, x), tIn.At(z, y+1, x),
							tIn.At(z, y, x-1), tIn.At(z, y, x+1),
						} {
							sink.Ref(trace.Ref{IP: ldT, Addr: addr})
						}
						sink.Ref(trace.Ref{IP: stR, Addr: tOut.At(z, y, x), Write: true})
					}
				}
			}
		}, sp
	})
}

// Kmeans mimics Rodinia kmeans: distance of every point (34 features) to
// every centroid — pure streaming with a cache-resident centroid block.
func Kmeans() *Program {
	const points, features, clusters = 4096, 34, 5
	return simpleKernel("kmeans", "kmeans.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("kmeans.c", 1) // per point
		b.Loop("kmeans.c", 2) // per cluster
		b.Loop("kmeans.c", 3) // per feature
		ldF := b.Load("kmeans.c", 4)
		ldC := b.Load("kmeans.c", 4)
		b.EndLoop()
		b.EndLoop()
		stM := b.Store("kmeans.c", 7)
		b.EndLoop()
		feats := alloc.NewMatrix2D(ar, "feature", points, features, 4, 0)
		cents := alloc.NewMatrix2D(ar, "clusters", clusters, features, 4, 0)
		membership := alloc.NewVector(ar, "membership", points, 4)
		rsF := int64(feats.RowStride())
		rsC := int64(cents.RowStride())
		sp := spec("kmeans",
			acc("feature", "kmeans.c:3", feats.At(0, 0), 4, 2,
				dim(rsF, points), dim(0, clusters), dim(4, features)),
			acc("clusters", "kmeans.c:3", cents.At(0, 0), 4, 3,
				dim(0, points), dim(rsC, clusters), dim(4, features)),
			acc("membership", "kmeans.c:1", membership.At(0), 4, 1, dim(4, points)),
		)
		return func(sink *trace.Emitter) {
			for p := 0; p < points; p++ {
				for c := 0; c < clusters; c++ {
					for f := 0; f < features; f++ {
						sink.Ref(trace.Ref{IP: ldF, Addr: feats.At(p, f)})
						sink.Ref(trace.Ref{IP: ldC, Addr: cents.At(c, f)})
					}
				}
				sink.Ref(trace.Ref{IP: stM, Addr: membership.At(p), Write: true})
			}
		}, sp
	})
}

// LavaMD mimics Rodinia lavaMD: particle interactions between a box and
// its neighbour boxes, each box holding 100 particles (sequential arrays).
// The spec approximates the random neighbour box as a resident block.
func LavaMD() *Program {
	const boxes, perBox, neighbors = 64, 100, 8
	return simpleKernel("lavaMD", "lavaMD.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("lavaMD.c", 1) // per box
		b.Loop("lavaMD.c", 2) // per neighbour box
		b.Loop("lavaMD.c", 3) // per home particle
		ldHome := b.Load("lavaMD.c", 4)
		b.Loop("lavaMD.c", 5) // per remote particle
		ldRemote := b.Load("lavaMD.c", 6)
		b.EndLoop()
		stF := b.Store("lavaMD.c", 8)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		pos := alloc.NewVector(ar, "rv", boxes*perBox, 16)
		frc := alloc.NewVector(ar, "fv", boxes*perBox, 16)
		const boxBytes = int64(16 * perBox)
		sp := spec("lavaMD",
			acc("rv", "lavaMD.c:3", pos.At(0), 16, 1,
				dim(boxBytes, boxes), dim(0, neighbors), dim(64, perBox/4)),
			accApprox("rv", "lavaMD.c:5", pos.At(0), 16, 2,
				dim(boxBytes, boxes), dim(0, neighbors), dim(0, perBox/4), dim(128, perBox/8+1)),
			acc("fv", "lavaMD.c:3", frc.At(0), 16, 1,
				dim(boxBytes, boxes), dim(0, neighbors), dim(64, perBox/4)),
		)
		rng := stats.NewRand(105)
		return func(sink *trace.Emitter) {
			for box := 0; box < boxes; box++ {
				for nb := 0; nb < neighbors; nb++ {
					remote := rng.Intn(boxes)
					for hp := 0; hp < perBox; hp += 4 {
						sink.Ref(trace.Ref{IP: ldHome, Addr: pos.At(box*perBox + hp)})
						for rp := 0; rp < perBox; rp += 8 {
							sink.Ref(trace.Ref{IP: ldRemote, Addr: pos.At(remote*perBox + rp)})
						}
						sink.Ref(trace.Ref{IP: stF, Addr: frc.At(box*perBox + hp), Write: true})
					}
				}
			}
		}, sp
	})
}

// Leukocyte mimics Rodinia leukocyte: gradient inverse coefficient
// variance over small windows of a video frame.
func Leukocyte() *Program {
	const imgW, imgH, win, cells = 640, 480, 12, 120
	return simpleKernel("leukocyte", "find_ellipse.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("find_ellipse.c", 1) // per cell candidate
		b.Loop("find_ellipse.c", 2) // window row
		b.Loop("find_ellipse.c", 3) // window col
		ldI := b.Load("find_ellipse.c", 4)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		img := alloc.NewMatrix2D(ar, "grad", imgH, imgW, 4, 0)
		rs := int64(img.RowStride())
		sp := spec("leukocyte",
			accApprox("grad", "find_ellipse.c:3", img.At(0, 0), 4, 3,
				dim(0, cells), dim(0, 10), dim(rs, win), dim(4, win)),
		)
		rng := stats.NewRand(106)
		return func(sink *trace.Emitter) {
			for c := 0; c < cells; c++ {
				r0, c0 := rng.Intn(imgH-win), rng.Intn(imgW-win)
				for rep := 0; rep < 10; rep++ {
					for i := 0; i < win; i++ {
						for j := 0; j < win; j++ {
							sink.Ref(trace.Ref{IP: ldI, Addr: img.At(r0+i, c0+j)})
						}
					}
				}
			}
		}, sp
	})
}

// LUD mimics Rodinia lud: in-place LU decomposition. The matrix dimension
// is deliberately not a power of two (250), so the column eliminations
// stride across sets instead of colliding.
func LUD() *Program {
	const n = 250
	return simpleKernel("lud", "lud.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("lud.c", 1) // for k
		b.Loop("lud.c", 2) // for i > k
		ldPivot := b.Load("lud.c", 3)
		b.Loop("lud.c", 4) // for j > k
		ldRow := b.Load("lud.c", 5)
		stRow := b.Store("lud.c", 5)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		m := alloc.NewMatrix2D(ar, "m", n, n, 4, 0)
		rs := int64(m.RowStride())
		const kIters, jIters = 50, 83 // k += 5, j += 3 sampling
		sp := spec("lud",
			accApprox("m", "lud.c:2", m.At(1, 0), 4, 1,
				dim(5*4, kIters), dim(rs, n-1)),
			accApprox("m", "lud.c:4", m.At(0, 1), 4, 2,
				dim(5*rs, kIters), dim(0, n-1), dim(3*4, jIters)),
			accApprox("m", "lud.c:4", m.At(1, 1), 4, 1,
				dim(0, kIters), dim(rs, n-1), dim(3*4, jIters)),
		)
		return func(sink *trace.Emitter) {
			for k := 0; k < n-1; k += 5 { // sample pivots to bound the trace
				for i := k + 1; i < n; i++ {
					sink.Ref(trace.Ref{IP: ldPivot, Addr: m.At(i, k)})
					for j := k + 1; j < n; j += 3 {
						sink.Ref(trace.Ref{IP: ldRow, Addr: m.At(k, j)})
						sink.Ref(trace.Ref{IP: stRow, Addr: m.At(i, j), Write: true})
					}
				}
			}
		}, sp
	})
}

// Myocyte mimics Rodinia myocyte: an ODE solver over ~100 state variables
// — a tiny, cache-resident working set.
func Myocyte() *Program {
	const states, steps = 106, 3000
	return simpleKernel("myocyte", "myocyte.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("myocyte.c", 1) // per timestep
		b.Loop("myocyte.c", 2) // per state
		ldY := b.Load("myocyte.c", 3)
		stD := b.Store("myocyte.c", 4)
		b.EndLoop()
		b.EndLoop()
		y := alloc.NewVector(ar, "y", states, 8)
		dy := alloc.NewVector(ar, "dy", states, 8)
		sp := spec("myocyte",
			acc("y", "myocyte.c:2", y.At(0), 8, 2, dim(0, steps), dim(8, states)),
			acc("dy", "myocyte.c:2", dy.At(0), 8, 2, dim(0, steps), dim(8, states)),
		)
		return func(sink *trace.Emitter) {
			for t := 0; t < steps; t++ {
				for s := 0; s < states; s++ {
					sink.Ref(trace.Ref{IP: ldY, Addr: y.At(s)})
					sink.Ref(trace.Ref{IP: stD, Addr: dy.At(s), Write: true})
				}
			}
		}, sp
	})
}

// NN mimics Rodinia nn: scanning a flat array of location records for the
// nearest neighbours — pure streaming.
func NN() *Program {
	const records = 65536
	return simpleKernel("nn", "nn.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("nn.c", 1)
		ldLat := b.Load("nn.c", 2)
		ldLng := b.Load("nn.c", 2)
		b.EndLoop()
		recs := alloc.NewVector(ar, "locations", records, 8)
		sp := spec("nn",
			acc("locations", "nn.c:1", recs.At(0), 8, 1, dim(8, records)),
		)
		return func(sink *trace.Emitter) {
			for r := 0; r < records; r++ {
				sink.Ref(trace.Ref{IP: ldLat, Addr: recs.At(r)})
				sink.Ref(trace.Ref{IP: ldLng, Addr: recs.At(r) + 4})
			}
		}, sp
	})
}

// ParticleFilter mimics Rodinia particlefilter: sequential passes over
// particle arrays plus a resampling gather (approximated as a stream).
func ParticleFilter() *Program {
	const particles, frames = 8192, 8
	return simpleKernel("particlefilter", "ex_particle.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("ex_particle.c", 1) // per frame
		b.Loop("ex_particle.c", 2) // weight update pass
		ldX := b.Load("ex_particle.c", 3)
		stW := b.Store("ex_particle.c", 4)
		b.EndLoop()
		b.Loop("ex_particle.c", 6) // resample gather
		ldU := b.Load("ex_particle.c", 7)
		stX := b.Store("ex_particle.c", 8)
		b.EndLoop()
		b.EndLoop()
		xs := alloc.NewVector(ar, "arrayX", particles, 8)
		ws := alloc.NewVector(ar, "weights", particles, 8)
		sp := spec("particlefilter",
			acc("arrayX", "ex_particle.c:2", xs.At(0), 8, 1, dim(0, frames), dim(8, particles)),
			acc("weights", "ex_particle.c:2", ws.At(0), 8, 1, dim(0, frames), dim(8, particles)),
			accApprox("arrayX", "ex_particle.c:6", xs.At(0), 8, 1, dim(0, frames), dim(8, particles)),
		)
		rng := stats.NewRand(107)
		return func(sink *trace.Emitter) {
			for f := 0; f < frames; f++ {
				for p := 0; p < particles; p++ {
					sink.Ref(trace.Ref{IP: ldX, Addr: xs.At(p)})
					sink.Ref(trace.Ref{IP: stW, Addr: ws.At(p), Write: true})
				}
				for p := 0; p < particles; p++ {
					sink.Ref(trace.Ref{IP: ldU, Addr: xs.At(rng.Intn(particles))})
					sink.Ref(trace.Ref{IP: stX, Addr: xs.At(p), Write: true})
				}
			}
		}, sp
	})
}

// Pathfinder mimics Rodinia pathfinder: dynamic programming over grid rows
// with only two rows live.
func Pathfinder() *Program {
	const cols, rows = 100000, 8
	return simpleKernel("pathfinder", "pathfinder.cpp", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("pathfinder.cpp", 1) // per row
		b.Loop("pathfinder.cpp", 2) // per column
		ldWall := b.Load("pathfinder.cpp", 3)
		ldPrev := b.Load("pathfinder.cpp", 4)
		stDst := b.Store("pathfinder.cpp", 5)
		b.EndLoop()
		b.EndLoop()
		wall := alloc.NewMatrix2D(ar, "wall", rows, cols, 4, 0)
		src := alloc.NewVector(ar, "src", cols, 4)
		dst := alloc.NewVector(ar, "dst", cols, 4)
		rsW := int64(wall.RowStride())
		sp := spec("pathfinder",
			acc("wall", "pathfinder.cpp:2", wall.At(1, 1), 4, 1, dim(rsW, rows-1), dim(4, cols-2)),
			acc("src", "pathfinder.cpp:2", src.At(0), 4, 1, dim(0, rows-1), dim(4, cols)),
			acc("dst", "pathfinder.cpp:2", dst.At(1), 4, 1, dim(0, rows-1), dim(4, cols-2)),
		)
		return func(sink *trace.Emitter) {
			for r := 1; r < rows; r++ {
				for c := 1; c < cols-1; c++ {
					sink.Ref(trace.Ref{IP: ldWall, Addr: wall.At(r, c)})
					sink.Ref(trace.Ref{IP: ldPrev, Addr: src.At(c - 1)})
					sink.Ref(trace.Ref{IP: ldPrev, Addr: src.At(c)})
					sink.Ref(trace.Ref{IP: ldPrev, Addr: src.At(c + 1)})
					sink.Ref(trace.Ref{IP: stDst, Addr: dst.At(c), Write: true})
				}
			}
		}, sp
	})
}

// SRAD mimics Rodinia srad: speckle-reducing anisotropic diffusion, a
// 4-neighbour stencil over a non-power-of-two image.
func SRAD() *Program {
	const rows, cols = 458, 502
	return simpleKernel("srad", "srad.c", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("srad.c", 1)
		b.Loop("srad.c", 2)
		ldJ := b.Load("srad.c", 3)
		stC := b.Store("srad.c", 4)
		b.EndLoop()
		b.EndLoop()
		img := alloc.NewMatrix2D(ar, "J", rows, cols, 4, 0)
		coef := alloc.NewMatrix2D(ar, "c", rows, cols, 4, 0)
		rs := int64(img.RowStride())
		ir, ic := rows-2, cols-2
		point := func(array string, base uint64) staticconf.Access {
			return acc(array, "srad.c:2", base, 4, 1, dim(rs, ir), dim(4, ic))
		}
		sp := spec("srad",
			point("J", img.At(1, 1)),
			point("J", img.At(0, 1)), point("J", img.At(2, 1)),
			point("J", img.At(1, 0)), point("J", img.At(1, 2)),
			point("c", coef.At(1, 1)),
		)
		return func(sink *trace.Emitter) {
			for i := 1; i < rows-1; i++ {
				for j := 1; j < cols-1; j++ {
					for _, addr := range []uint64{
						img.At(i, j), img.At(i-1, j), img.At(i+1, j),
						img.At(i, j-1), img.At(i, j+1),
					} {
						sink.Ref(trace.Ref{IP: ldJ, Addr: addr})
					}
					sink.Ref(trace.Ref{IP: stC, Addr: coef.At(i, j), Write: true})
				}
			}
		}, sp
	})
}

// Streamcluster mimics Rodinia streamcluster: distances between points and
// medians in a 32-dimensional space, streaming over the point block.
func Streamcluster() *Program {
	const points, ndim, medians = 4096, 32, 16
	return simpleKernel("streamcluster", "streamcluster.cpp", func(b *objfile.Builder, ar *alloc.Arena) (func(*trace.Emitter), *staticconf.Spec) {
		b.Loop("streamcluster.cpp", 1) // per point
		b.Loop("streamcluster.cpp", 2) // per median
		b.Loop("streamcluster.cpp", 3) // per dimension
		ldP := b.Load("streamcluster.cpp", 4)
		ldM := b.Load("streamcluster.cpp", 4)
		b.EndLoop()
		b.EndLoop()
		b.EndLoop()
		// 33 floats per point (coords + weight) keeps the stride off
		// powers of two, like the benchmark's struct layout.
		pts := alloc.NewMatrix2D(ar, "points", points, ndim+1, 4, 0)
		meds := alloc.NewMatrix2D(ar, "medians", medians, ndim+1, 4, 0)
		rsP := int64(pts.RowStride())
		rsM := int64(meds.RowStride())
		sp := spec("streamcluster",
			acc("points", "streamcluster.cpp:3", pts.At(0, 0), 4, 2,
				dim(rsP, points), dim(0, medians), dim(4, ndim)),
			acc("medians", "streamcluster.cpp:3", meds.At(0, 0), 4, 3,
				dim(0, points), dim(rsM, medians), dim(4, ndim)),
		)
		return func(sink *trace.Emitter) {
			for p := 0; p < points; p++ {
				for m := 0; m < medians; m++ {
					for d := 0; d < ndim; d++ {
						sink.Ref(trace.Ref{IP: ldP, Addr: pts.At(p, d)})
						sink.Ref(trace.Ref{IP: ldM, Addr: meds.At(m, d)})
					}
				}
			}
		}, sp
	})
}
