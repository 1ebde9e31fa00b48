package specgen

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// Import paths of the modeled runtime packages.
const (
	pathAlloc      = "repro/internal/alloc"
	pathObjfile    = "repro/internal/objfile"
	pathTrace      = "repro/internal/trace"
	pathStats      = "repro/internal/stats"
	pathStaticconf = "repro/internal/staticconf"
)

type (
	// vPkg is a reference to an imported package.
	vPkg struct{ path string }
	// vBuiltin is a reference to a Go builtin function.
	vBuiltin struct{ name string }
	// vModelFunc is pkg.Func of a modeled package, pre-dispatch.
	vModelFunc struct{ path, name string }
	// vBoundMethod is recv.Method of a model value, pre-dispatch.
	vBoundMethod struct {
		recv value
		name string
	}
	// vMap models string-keyed maps (the workload registry).
	vMap struct {
		entries map[string]value
	}
)

var intConvs = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "byte": true, "rune": true,
}

var floatConvs = map[string]bool{
	"float32": true, "float64": true, "complex64": true, "complex128": true,
}

var builtins = map[string]bool{
	"len": true, "cap": true, "make": true, "new": true, "append": true,
	"copy": true, "delete": true, "panic": true, "print": true,
	"println": true, "min": true, "max": true,
	"complex": true, "real": true, "imag": true,
}

func (in *interp) eval(e ast.Expr, env *scope) (value, error) {
	if err := in.burn(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *ast.BasicLit:
		return in.evalLit(x)
	case *ast.Ident:
		return in.evalIdent(x, env), nil
	case *ast.ParenExpr:
		return in.eval(x.X, env)
	case *ast.UnaryExpr:
		return in.evalUnary(x, env)
	case *ast.BinaryExpr:
		return in.evalBinary(x, env)
	case *ast.CallExpr:
		return in.evalCall(x, env)
	case *ast.SelectorExpr:
		return in.evalSelector(x, env)
	case *ast.IndexExpr:
		return in.evalIndex(x, env)
	case *ast.CompositeLit:
		return in.evalComposite(x, env)
	case *ast.FuncLit:
		return &vClosure{fn: x.Type, body: x.Body, env: env, name: "func literal"}, nil
	case *ast.StarExpr:
		return in.eval(x.X, env)
	case *ast.SliceExpr:
		return in.evalSlice(x, env)
	case *ast.KeyValueExpr:
		return nil, fmt.Errorf("specgen: key-value expression outside composite literal")
	default:
		in.note("unsupported expression %T treated as unknown", e)
		return unknown(fmt.Sprintf("unsupported expression %T", e)), nil
	}
}

func (in *interp) evalLit(l *ast.BasicLit) (value, error) {
	switch l.Kind {
	case token.INT:
		n, err := strconv.ParseInt(l.Value, 0, 64)
		if err != nil {
			u, uerr := strconv.ParseUint(l.Value, 0, 64)
			if uerr != nil {
				return nil, fmt.Errorf("specgen: bad int literal %q: %v", l.Value, err)
			}
			n = int64(u)
		}
		return vInt(n), nil
	case token.STRING:
		s, err := strconv.Unquote(l.Value)
		if err != nil {
			return nil, fmt.Errorf("specgen: bad string literal %q: %v", l.Value, err)
		}
		return vStr(s), nil
	case token.CHAR:
		s, err := strconv.Unquote(l.Value)
		if err != nil || len(s) == 0 {
			return unknown("char literal"), nil
		}
		return vInt(int64([]rune(s)[0])), nil
	case token.FLOAT, token.IMAG:
		return unknown("floating-point literal"), nil
	}
	return unknown("literal kind " + l.Kind.String()), nil
}

func (in *interp) evalIdent(id *ast.Ident, env *scope) value {
	switch id.Name {
	case "_":
		return unknown("blank identifier")
	case "nil":
		return vOpaque{}
	}
	if c, ok := env.lookup(id.Name); ok {
		return c.v
	}
	if id.Name == "true" {
		return vBool(true)
	}
	if id.Name == "false" {
		return vBool(false)
	}
	if path, ok := in.pkg.imports[id.Name]; ok {
		return vPkg{path: path}
	}
	if builtins[id.Name] {
		return vBuiltin{name: id.Name}
	}
	in.note("unresolved identifier %s", id.Name)
	return unknown("unresolved identifier " + id.Name)
}

func (in *interp) evalUnary(x *ast.UnaryExpr, env *scope) (value, error) {
	v, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case token.SUB:
		if a, ok := asAffine(v); ok {
			return aNeg(a), nil
		}
		return v, nil
	case token.ADD:
		return v, nil
	case token.NOT:
		if b, ok := v.(vBool); ok {
			return vBool(!b), nil
		}
		return v, nil
	case token.AND:
		// Reference semantics throughout: &x is x.
		return v, nil
	case token.XOR:
		if c, ok := asConcrete(v); ok {
			return vInt(^c), nil
		}
		return unknown("bitwise complement of symbolic value"), nil
	}
	return unknown("unary " + x.Op.String()), nil
}

func (in *interp) evalBinary(x *ast.BinaryExpr, env *scope) (value, error) {
	if x.Op == token.LAND || x.Op == token.LOR {
		l, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if b, ok := l.(vBool); ok {
			if (x.Op == token.LAND && !bool(b)) || (x.Op == token.LOR && bool(b)) {
				return b, nil
			}
			return in.eval(x.Y, env)
		}
		// Symbolic left side: still evaluate the right for its reasons.
		r, err := in.eval(x.Y, env)
		if err != nil {
			return nil, err
		}
		if b, ok := r.(vBool); ok {
			if (x.Op == token.LAND && !bool(b)) || (x.Op == token.LOR && bool(b)) {
				return b, nil
			}
		}
		why, _ := whyUnknown(l, r)
		return unknown("data-dependent condition: " + why), nil
	}
	l, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(x.Y, env)
	if err != nil {
		return nil, err
	}
	return in.binop(x.Op, l, r), nil
}

func (in *interp) binop(op token.Token, l, r value) value {
	la, lok := asAffine(l)
	ra, rok := asAffine(r)
	if lok && rok {
		switch op {
		case token.ADD:
			return aAdd(la, ra)
		case token.SUB:
			return aSub(la, ra)
		case token.MUL:
			if p, ok := aMul(la, ra); ok {
				return p
			}
			return unknown("non-affine product " + la.String() + " * " + ra.String())
		case token.QUO:
			if q, ok := aDiv(la, ra); ok {
				return q
			}
			return unknown("non-affine quotient")
		case token.REM:
			if m, ok := aMod(la, ra); ok {
				return m
			}
			return unknown("non-affine remainder")
		case token.SHL:
			if k, ok := asConcrete(r); ok && k >= 0 && k < 63 {
				return aScale(la, 1<<uint(k))
			}
			return unknown("shift by symbolic amount")
		case token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
			lc, lcok := asConcrete(l)
			rc, rcok := asConcrete(r)
			if lcok && rcok {
				switch op {
				case token.SHR:
					if rc >= 0 && rc < 64 {
						return vInt(lc >> uint(rc))
					}
				case token.AND:
					return vInt(lc & rc)
				case token.OR:
					return vInt(lc | rc)
				case token.XOR:
					return vInt(lc ^ rc)
				case token.AND_NOT:
					return vInt(lc &^ rc)
				}
			}
			return unknown("bitwise operation on symbolic value")
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			d := aSub(la, ra)
			if !d.isConst() {
				// A comparison decidable over the whole iteration domain
				// is still concrete (e.g. i+1 > i).
				lo, hi := rangeOf(d)
				switch {
				case lo > 0:
					d = aConst(1)
				case hi < 0:
					d = aConst(-1)
				case lo == 0 && hi == 0:
					d = aConst(0)
				default:
					return unknown("comparison depends on loop iteration: " + d.String())
				}
			}
			c := d.c0
			switch op {
			case token.LSS:
				return vBool(c < 0)
			case token.LEQ:
				return vBool(c <= 0)
			case token.GTR:
				return vBool(c > 0)
			case token.GEQ:
				return vBool(c >= 0)
			case token.EQL:
				return vBool(c == 0)
			case token.NEQ:
				return vBool(c != 0)
			}
		}
	}
	if ls, ok := l.(vStr); ok {
		if rs, ok := r.(vStr); ok {
			switch op {
			case token.ADD:
				return ls + rs
			case token.EQL:
				return vBool(ls == rs)
			case token.NEQ:
				return vBool(ls != rs)
			}
		}
	}
	if lb, ok := l.(vBool); ok {
		if rb, ok := r.(vBool); ok {
			switch op {
			case token.EQL:
				return vBool(lb == rb)
			case token.NEQ:
				return vBool(lb != rb)
			}
		}
	}
	why, _ := whyUnknown(l, r)
	if why == "" {
		why = fmt.Sprintf("operator %s on %T and %T", op, l, r)
	}
	return unknown(why)
}

func (in *interp) evalSelector(x *ast.SelectorExpr, env *scope) (value, error) {
	recv, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	name := x.Sel.Name
	switch r := recv.(type) {
	case vPkg:
		return vModelFunc{path: r.path, name: name}, nil
	case *vStruct:
		if f, ok := r.fields[name]; ok {
			return f, nil
		}
		return unknown(fmt.Sprintf("unset field %s.%s", r.typeName, name)), nil
	case *vMatrix2D:
		switch name {
		case "Start":
			return vInt(int64(r.block.start)), nil
		case "Size":
			return vInt(int64(r.block.size)), nil
		case "Name":
			return vStr(r.block.name), nil
		case "Elem":
			return vInt(r.elem), nil
		}
		return vBoundMethod{recv: recv, name: name}, nil
	case *vMatrix3D:
		switch name {
		case "Start":
			return vInt(int64(r.block.start)), nil
		case "Size":
			return vInt(int64(r.block.size)), nil
		case "Name":
			return vStr(r.block.name), nil
		case "Elem":
			return vInt(r.elem), nil
		}
		return vBoundMethod{recv: recv, name: name}, nil
	case *vVector:
		switch name {
		case "Start":
			return vInt(int64(r.block.start)), nil
		case "Size":
			return vInt(int64(r.block.size)), nil
		case "Name":
			return vStr(r.block.name), nil
		case "Elem":
			return vInt(r.elem), nil
		}
		return vBoundMethod{recv: recv, name: name}, nil
	case *vArena, *vBuilder, vRand, vSink:
		return vBoundMethod{recv: recv, name: name}, nil
	case vUnknown:
		return r, nil
	}
	return unknown(fmt.Sprintf("selector .%s on %T", name, recv)), nil
}

func (in *interp) evalIndex(x *ast.IndexExpr, env *scope) (value, error) {
	recv, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	idx, err := in.eval(x.Index, env)
	if err != nil {
		return nil, err
	}
	switch r := recv.(type) {
	case *vSlice:
		if r.dirty {
			return unknown(r.why), nil
		}
		if c, ok := asConcrete(idx); ok {
			if r.elems != nil {
				if c < 0 || c >= int64(len(r.elems)) {
					return unknown("index out of tracked range"), nil
				}
				return r.elems[c], nil
			}
			return unknown("untracked slice element"), nil
		}
		if why, bad := whyUnknown(idx); bad {
			return unknown(why), nil
		}
		return unknown("slice element read at symbolic index"), nil
	case *vMap:
		if k, ok := idx.(vStr); ok {
			if v, ok := r.entries[string(k)]; ok {
				return v, nil
			}
			return unknown("missing map key " + string(k)), nil
		}
		return unknown("map lookup with non-string key"), nil
	case vStr:
		if c, ok := asConcrete(idx); ok && c >= 0 && c < int64(len(r)) {
			return vInt(int64(r[c])), nil
		}
		return unknown("string index"), nil
	case vUnknown:
		return r, nil
	}
	return unknown(fmt.Sprintf("index into %T", recv)), nil
}

func (in *interp) evalSlice(x *ast.SliceExpr, env *scope) (value, error) {
	recv, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	sl, ok := recv.(*vSlice)
	if !ok {
		return unknown("slice expression on non-slice"), nil
	}
	lo := aConst(0)
	hi := sl.length
	if x.Low != nil {
		v, err := in.eval(x.Low, env)
		if err != nil {
			return nil, err
		}
		if a, ok := asAffine(v); ok {
			lo = a
		} else {
			return unknown("slice with symbolic bound"), nil
		}
	}
	if x.High != nil {
		v, err := in.eval(x.High, env)
		if err != nil {
			return nil, err
		}
		if a, ok := asAffine(v); ok {
			hi = a
		} else {
			return unknown("slice with symbolic bound"), nil
		}
	}
	if hi == nil {
		return unknown("slice of unsized value"), nil
	}
	return &vSlice{length: aSub(hi, lo), dirty: sl.dirty, why: sl.why}, nil
}

func (in *interp) evalComposite(x *ast.CompositeLit, env *scope) (value, error) {
	switch t := x.Type.(type) {
	case *ast.ArrayType:
		var elems []value
		for _, el := range x.Elts {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		return &vSlice{length: aConst(int64(len(elems))), elems: elems}, nil
	case *ast.MapType:
		m := &vMap{entries: map[string]value{}}
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			k, err := in.eval(kv.Key, env)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(kv.Value, env)
			if err != nil {
				return nil, err
			}
			if ks, ok := k.(vStr); ok {
				m.entries[string(ks)] = v
			}
		}
		return m, nil
	case *ast.Ident, *ast.SelectorExpr:
		typeName := typeExprName(t)
		st := newStruct(typeName)
		positional := false
		for _, el := range x.Elts {
			if _, ok := el.(*ast.KeyValueExpr); !ok {
				positional = true
			}
		}
		if positional {
			// Resolve field order for local struct types.
			var fieldNames []string
			if id, ok := t.(*ast.Ident); ok {
				if decl := in.pkg.structType(id.Name); decl != nil {
					for _, f := range decl.Fields.List {
						for _, fn := range f.Names {
							fieldNames = append(fieldNames, fn.Name)
						}
					}
				}
			}
			for i, el := range x.Elts {
				v, err := in.eval(el, env)
				if err != nil {
					return nil, err
				}
				if i < len(fieldNames) {
					st.fields[fieldNames[i]] = v
				} else {
					st.fields[fmt.Sprintf("arg%d", i)] = v
				}
			}
			return st, nil
		}
		for _, el := range x.Elts {
			kv := el.(*ast.KeyValueExpr)
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			v, err := in.eval(kv.Value, env)
			if err != nil {
				return nil, err
			}
			st.fields[key.Name] = v
		}
		return st, nil
	}
	return unknown("composite literal of unsupported type"), nil
}

func typeExprName(t ast.Expr) string {
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.SelectorExpr:
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name + "." + tt.Sel.Name
		}
		return tt.Sel.Name
	}
	return "?"
}
