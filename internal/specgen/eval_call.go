package specgen

import (
	"fmt"
	"go/ast"
)

func (in *interp) evalCall(call *ast.CallExpr, env *scope) (value, error) {
	// Type conversions: T(x) for builtin scalar types, unless shadowed.
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 1 {
		if _, shadowed := env.lookup(id.Name); !shadowed {
			if intConvs[id.Name] {
				return in.eval(call.Args[0], env)
			}
			if floatConvs[id.Name] {
				v, err := in.eval(call.Args[0], env)
				if err != nil {
					return nil, err
				}
				if why, bad := whyUnknown(v); bad {
					return unknown(why), nil
				}
				return unknown("floating-point conversion"), nil
			}
		}
	}
	callee, err := in.eval(call.Fun, env)
	if err != nil {
		return nil, err
	}
	if b, ok := callee.(vBuiltin); ok {
		return in.callBuiltin(b.name, call, env)
	}
	args := make([]value, 0, len(call.Args))
	for _, a := range call.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	switch f := callee.(type) {
	case *vClosure:
		return in.callClosure(f, args)
	case vModelFunc:
		return in.modelCall(f.path, f.name, args)
	case vBoundMethod:
		return in.modelMethod(f.recv, f.name, args)
	case vUnknown:
		return f, nil
	}
	in.note("call of unsupported callee %T", callee)
	return unknown(fmt.Sprintf("call of %T", callee)), nil
}

func (in *interp) callBuiltin(name string, call *ast.CallExpr, env *scope) (value, error) {
	switch name {
	case "make":
		if len(call.Args) < 1 {
			return unknown("make with no type"), nil
		}
		switch call.Args[0].(type) {
		case *ast.MapType:
			return &vMap{entries: map[string]value{}}, nil
		}
		if len(call.Args) < 2 {
			return unknown("make with no length"), nil
		}
		n, err := in.eval(call.Args[1], env)
		if err != nil {
			return nil, err
		}
		if a, ok := asAffine(n); ok {
			return &vSlice{length: a}, nil
		}
		why, _ := whyUnknown(n)
		return &vSlice{length: aConst(0), dirty: true, why: "slice of unanalyzable length: " + why}, nil
	case "new":
		if len(call.Args) == 1 {
			return in.zeroValue(call.Args[0], env), nil
		}
		return unknown("new"), nil
	}
	args := make([]value, 0, len(call.Args))
	for _, a := range call.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	switch name {
	case "len":
		if len(args) != 1 {
			return unknown("len"), nil
		}
		switch x := args[0].(type) {
		case *vSlice:
			return x.length, nil
		case vStr:
			return vInt(int64(len(x))), nil
		case *vMap:
			return vInt(int64(len(x.entries))), nil
		}
		why, _ := whyUnknown(args[0])
		return unknown("len of unanalyzable value: " + why), nil
	case "cap":
		return unknown("cap"), nil
	case "append":
		if len(args) == 0 {
			return unknown("append"), nil
		}
		base, ok := args[0].(*vSlice)
		if !ok {
			return unknown("append to non-slice"), nil
		}
		out := &vSlice{
			length: aAdd(base.length, aConst(int64(len(args)-1))),
			dirty:  base.dirty,
			why:    base.why,
		}
		if base.elems != nil && !base.dirty {
			out.elems = append(append([]value(nil), base.elems...), args[1:]...)
		}
		return out, nil
	case "panic":
		msg := "panic"
		if len(args) == 1 {
			if s, ok := args[0].(vStr); ok {
				msg = string(s)
			}
		}
		return nil, fmt.Errorf("specgen: workload panic reached during extraction: %s", msg)
	case "copy", "delete", "print", "println":
		return vOpaque{kind: "void"}, nil
	case "complex", "real", "imag":
		return unknown("complex arithmetic"), nil
	case "min", "max":
		if len(args) < 1 {
			return unknown(name), nil
		}
		best := args[0]
		for _, a := range args[1:] {
			ba, ok1 := asAffine(best)
			aa, ok2 := asAffine(a)
			if !ok1 || !ok2 {
				return unknown(name + " of non-affine values"), nil
			}
			d := aSub(aa, ba)
			lo, hi := rangeOf(d)
			switch {
			case name == "min" && hi <= 0, name == "max" && lo >= 0:
				best = a
			case name == "min" && lo >= 0, name == "max" && hi <= 0:
				// keep best
			default:
				return unknown(name + " undecidable over iteration domain"), nil
			}
		}
		return best, nil
	}
	return unknown("builtin " + name), nil
}

// callClosure applies a function value. Affine arguments that couple
// induction variables with mixed signs (a wavefront skew like d-k) are
// rebound to a fresh rectangular induction variable spanning the argument's
// exact value range — the extraction-side counterpart of the loop-skewing
// normalization hand specs apply to wavefront kernels.
func (in *interp) callClosure(cl *vClosure, args []value) (value, error) {
	if in.callDep >= maxCallDepth {
		return nil, fmt.Errorf("specgen: call depth limit in %s", cl.name)
	}
	in.callDep++
	defer func() { in.callDep-- }()

	fnScope := newScope(cl.env)
	pushed := 0
	defer func() {
		if pushed > 0 {
			in.ivStack = in.ivStack[:len(in.ivStack)-pushed]
		}
	}()

	var params []*ast.Ident
	variadicAt := -1
	if cl.fn.Params != nil {
		for _, f := range cl.fn.Params.List {
			isVariadic := false
			if _, ok := f.Type.(*ast.Ellipsis); ok {
				isVariadic = true
			}
			if len(f.Names) == 0 {
				// Unnamed parameter still consumes an argument slot.
				params = append(params, nil)
				if isVariadic {
					variadicAt = len(params) - 1
				}
				continue
			}
			for _, n := range f.Names {
				params = append(params, n)
				if isVariadic {
					variadicAt = len(params) - 1
				}
			}
		}
	}
	for i, p := range params {
		var v value
		switch {
		case i == variadicAt:
			rest := args[min(i, len(args)):]
			v = &vSlice{length: aConst(int64(len(rest))), elems: append([]value(nil), rest...)}
		case i < len(args):
			v = args[i]
		default:
			v = unknown("missing argument")
		}
		if a, ok := asAffine(v); ok && a.mixedSign() {
			lo, hi := rangeOf(a)
			trip := hi - lo + 1
			if trip >= 1 {
				iv := &ivar{
					id:       in.nextIV,
					name:     paramName(p) + "'",
					depth:    len(in.ivStack),
					trip:     int(trip),
					tmaxExpr: aConst(trip - 1),
					fresh:    true,
				}
				for _, t := range a.terms {
					iv.sources = append(iv.sources, t.iv)
				}
				in.nextIV++
				in.ivStack = append(in.ivStack, iv)
				pushed++
				v = aAdd(aConst(lo), aIvar(iv))
				in.note("argument %s of %s rebound to fresh rectangular variable over [%d,%d]",
					paramName(p), cl.name, lo, hi)
			}
		}
		if p != nil {
			fnScope.define(p.Name, v)
		}
	}

	// Named results default to zero-ish values for bare returns.
	var resultNames []string
	if cl.fn.Results != nil {
		for _, f := range cl.fn.Results.List {
			for _, n := range f.Names {
				fnScope.define(n.Name, in.zeroValue(f.Type, fnScope))
				resultNames = append(resultNames, n.Name)
			}
		}
	}

	err := in.execBlock(cl.body.List, fnScope)
	if cs, ok := err.(*ctrlSignal); ok && cs.kind == "return" {
		switch len(cs.vals) {
		case 0:
			if len(resultNames) > 0 {
				out := make(vTuple, 0, len(resultNames))
				for _, n := range resultNames {
					c, _ := fnScope.lookup(n)
					out = append(out, c.v)
				}
				if len(out) == 1 {
					return out[0], nil
				}
				return out, nil
			}
			return vOpaque{kind: "void"}, nil
		case 1:
			return cs.vals[0], nil
		default:
			return cs.vals, nil
		}
	}
	if err != nil {
		return nil, err
	}
	return vOpaque{kind: "void"}, nil
}

func paramName(p *ast.Ident) string {
	if p == nil {
		return "_"
	}
	return p.Name
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---- models ------------------------------------------------------------

func (in *interp) modelCall(path, name string, args []value) (value, error) {
	switch path {
	case pathAlloc:
		return in.allocCall(name, args)
	case pathObjfile:
		if name == "NewBuilder" {
			return newBuilder(), nil
		}
	case pathStats:
		if name == "NewRand" {
			return vRand{}, nil
		}
	case "fmt":
		if name == "Sprintf" {
			return sprintfModel(args), nil
		}
		return vOpaque{kind: "void"}, nil
	case pathTrace, pathStaticconf:
		// Only their types are used by the kernels; any function call is
		// outside the modeled surface.
		return unknown("call into " + path + "." + name), nil
	}
	return unknown("call into unmodeled package " + path + "." + name), nil
}

func sprintfModel(args []value) value {
	if len(args) == 0 {
		return unknown("Sprintf with no format")
	}
	format, ok := args[0].(vStr)
	if !ok {
		return unknown("Sprintf with non-constant format")
	}
	rest := make([]interface{}, 0, len(args)-1)
	for _, a := range args[1:] {
		switch x := a.(type) {
		case vStr:
			rest = append(rest, string(x))
		case vBool:
			rest = append(rest, bool(x))
		default:
			if c, ok := asConcrete(a); ok {
				rest = append(rest, c)
			} else {
				return unknown("Sprintf of non-concrete value")
			}
		}
	}
	return vStr(fmt.Sprintf(string(format), rest...))
}

func (in *interp) allocCall(name string, args []value) (value, error) {
	concrete := func(i int) (int64, bool) {
		if i >= len(args) {
			return 0, false
		}
		return asConcrete(args[i])
	}
	str := func(i int) string {
		if i < len(args) {
			if s, ok := args[i].(vStr); ok {
				return string(s)
			}
		}
		return "?"
	}
	arena := func(i int) *vArena {
		if i < len(args) {
			if a, ok := args[i].(*vArena); ok {
				return a
			}
		}
		return nil
	}
	switch name {
	case "NewArena":
		return newArena(), nil
	case "NewMatrix2D":
		ar := arena(0)
		rows, ok1 := concrete(2)
		cols, ok2 := concrete(3)
		elem, ok3 := concrete(4)
		rowPad, ok4 := concrete(5)
		if ar == nil || !ok1 || !ok2 || !ok3 || !ok4 {
			in.note("NewMatrix2D(%s) with non-concrete shape", str(1))
			return unknown("matrix with non-concrete shape"), nil
		}
		if rows <= 0 || cols <= 0 || elem == 0 {
			return nil, fmt.Errorf("specgen: invalid matrix %s: %dx%d elem=%d", str(1), rows, cols, elem)
		}
		m := &vMatrix2D{rows: rows, cols: cols, elem: elem, rowPad: rowPad}
		b, err := ar.alloc(str(1), uint64(rows*m.rowStride()), 64)
		if err != nil {
			return nil, err
		}
		m.block = b
		return m, nil
	case "NewMatrix3D":
		ar := arena(0)
		ni, ok1 := concrete(2)
		nj, ok2 := concrete(3)
		nk, ok3 := concrete(4)
		elem, ok4 := concrete(5)
		rowPad, ok5 := concrete(6)
		planePad, ok6 := concrete(7)
		if ar == nil || !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
			in.note("NewMatrix3D(%s) with non-concrete shape", str(1))
			return unknown("matrix with non-concrete shape"), nil
		}
		if ni <= 0 || nj <= 0 || nk <= 0 || elem == 0 {
			return nil, fmt.Errorf("specgen: invalid 3d matrix %s: %dx%dx%d elem=%d", str(1), ni, nj, nk, elem)
		}
		m := &vMatrix3D{ni: ni, nj: nj, nk: nk, elem: elem, rowPad: rowPad, planePad: planePad}
		b, err := ar.alloc(str(1), uint64(ni*m.planeStride()), 64)
		if err != nil {
			return nil, err
		}
		m.block = b
		return m, nil
	case "NewVector":
		ar := arena(0)
		n, ok1 := concrete(2)
		elem, ok2 := concrete(3)
		if ar == nil || !ok1 || !ok2 {
			in.note("NewVector(%s) with non-concrete shape", str(1))
			return unknown("vector with non-concrete shape"), nil
		}
		if n <= 0 || elem == 0 {
			return nil, fmt.Errorf("specgen: invalid vector %s: n=%d elem=%d", str(1), n, elem)
		}
		v := &vVector{n: n, elem: elem}
		b, err := ar.alloc(str(1), uint64(n*elem), 64)
		if err != nil {
			return nil, err
		}
		v.block = b
		return v, nil
	}
	return unknown("alloc." + name), nil
}

func (in *interp) modelMethod(recv value, name string, args []value) (value, error) {
	affineArg := func(i int) (*affine, string) {
		if i >= len(args) {
			return nil, "missing argument"
		}
		if a, ok := asAffine(args[i]); ok {
			return a, ""
		}
		why, _ := whyUnknown(args[i])
		if why == "" {
			why = fmt.Sprintf("non-affine index %T", args[i])
		}
		return nil, why
	}
	switch r := recv.(type) {
	case *vArena:
		switch name {
		case "Gap":
			if n, ok := asConcrete(args[0]); ok && len(args) == 1 {
				r.next += uint64(n)
				return vOpaque{kind: "void"}, nil
			}
			return nil, fmt.Errorf("specgen: arena Gap with non-concrete size")
		case "Alloc":
			nameStr := "?"
			if s, ok := args[0].(vStr); ok {
				nameStr = string(s)
			}
			size, ok1 := asConcrete(args[1])
			align, ok2 := asConcrete(args[2])
			if !ok1 || !ok2 {
				return unknown("alloc with non-concrete size"), nil
			}
			b, err := r.alloc(nameStr, uint64(size), uint64(align))
			if err != nil {
				return nil, err
			}
			st := newStruct("alloc.Block")
			st.fields["Name"] = vStr(b.name)
			st.fields["Start"] = vInt(int64(b.start))
			st.fields["Size"] = vInt(int64(b.size))
			return st, nil
		}
	case *vMatrix2D:
		switch name {
		case "At":
			i, whyI := affineArg(0)
			j, whyJ := affineArg(1)
			if i == nil || j == nil {
				why := whyI
				if why == "" {
					why = whyJ
				}
				return unknown(why), nil
			}
			return r.at(i, j), nil
		case "RowStride":
			return vInt(r.rowStride()), nil
		}
	case *vMatrix3D:
		switch name {
		case "At":
			i, whyI := affineArg(0)
			j, whyJ := affineArg(1)
			k, whyK := affineArg(2)
			if i == nil || j == nil || k == nil {
				why := whyI
				if why == "" {
					why = whyJ
				}
				if why == "" {
					why = whyK
				}
				return unknown(why), nil
			}
			return r.at(i, j, k), nil
		case "RowStride":
			return vInt(r.rowStride()), nil
		case "PlaneStride":
			return vInt(r.planeStride()), nil
		}
	case *vVector:
		if name == "At" {
			i, why := affineArg(0)
			if i == nil {
				return unknown(why), nil
			}
			return r.at(i), nil
		}
	case *vBuilder:
		loc := func() (string, int64, bool) {
			if len(args) < 2 {
				return "", 0, false
			}
			f, ok1 := args[0].(vStr)
			l, ok2 := asConcrete(args[1])
			return string(f), l, ok1 && ok2
		}
		switch name {
		case "Func":
			return vOpaque{kind: "void"}, nil
		case "Loop":
			if f, l, ok := loc(); ok {
				r.loop(f, l)
				return vOpaque{kind: "loop-ip"}, nil
			}
			return nil, fmt.Errorf("specgen: builder Loop with non-concrete location")
		case "EndLoop":
			r.endLoop()
			return vOpaque{kind: "void"}, nil
		case "Load", "Op", "Call":
			if f, l, ok := loc(); ok {
				return r.emit(f, l, false), nil
			}
			return nil, fmt.Errorf("specgen: builder %s with non-concrete location", name)
		case "Store":
			if f, l, ok := loc(); ok {
				return r.emit(f, l, true), nil
			}
			return nil, fmt.Errorf("specgen: builder Store with non-concrete location")
		case "Finish":
			return vOpaque{kind: "binary"}, nil
		}
	case vRand:
		return unknown("random draw from stats.Rand." + name), nil
	case vSink:
		if name == "Ref" && len(args) == 1 {
			if ref, ok := args[0].(*vStruct); ok {
				in.sinkRef(ref)
				return vOpaque{kind: "void"}, nil
			}
			in.note("sink.Ref with non-literal argument")
			return vOpaque{kind: "void"}, nil
		}
		return vOpaque{kind: "void"}, nil
	}
	return unknown(fmt.Sprintf("method %s on %T", name, recv)), nil
}

func (in *interp) sinkRef(ref *vStruct) {
	ipv, ok := ref.fields["IP"]
	if !ok {
		in.note("sink.Ref without IP field")
		return
	}
	ip, ok := ipv.(*vIP)
	if !ok {
		in.note("sink.Ref with unanalyzable IP")
		return
	}
	write := ip.write
	if w, ok := ref.fields["Write"].(vBool); ok {
		write = bool(w)
	}
	addr, ok := ref.fields["Addr"]
	if !ok {
		addr = unknown("Ref without address")
	}
	in.emit(ip, addr, write)
}
