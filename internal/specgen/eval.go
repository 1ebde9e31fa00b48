package specgen

import (
	"fmt"
	"go/ast"
	"go/token"
)

// refEvent is one sink.Ref reached during abstract execution: an address
// expression (nil when unanalyzable) over the induction variables that
// were live when it fired.
type refEvent struct {
	ip    *vIP
	addr  *affine
	write bool
	why   string  // non-empty when addr is nil: first cause of the taint
	ivs   []*ivar // enclosing symbolic loops, outermost first
}

// interp is one extraction run's state.
type interp struct {
	pkg     *Package
	root    *scope // package-level environment
	events  []refEvent
	notes   []string
	ivStack []*ivar
	nextIV  int
	fuel    int
	callDep int
	quiet   int // >0 while running speculative evaluations (prescan)
}

const (
	defaultFuel   = 4 << 20
	maxEvents     = 1 << 17
	maxCallDepth  = 64
	maxConcIters  = 1 << 16 // non-affine loops executed concretely
	maxUnrollIter = 64      // range-over-literal unrolling
	maxEffectTrip = 256     // affine loops run concretely for alloc effects
)

// control-flow signals, threaded through the error return.
type ctrlSignal struct {
	kind string // "return", "break", "continue"
	vals vTuple
}

func (c *ctrlSignal) Error() string { return "specgen: control " + c.kind }

func (in *interp) note(format string, args ...interface{}) {
	if in.quiet == 0 && len(in.notes) < 256 {
		in.notes = append(in.notes, fmt.Sprintf(format, args...))
	}
}

func (in *interp) burn() error {
	in.fuel--
	if in.fuel <= 0 {
		return fmt.Errorf("specgen: evaluation budget exhausted")
	}
	return nil
}

func (in *interp) snapshotIVs() []*ivar {
	return append([]*ivar(nil), in.ivStack...)
}

func (in *interp) emit(ip *vIP, addr value, write bool) {
	if len(in.events) >= maxEvents {
		return
	}
	ev := refEvent{ip: ip, write: write, ivs: in.snapshotIVs()}
	switch a := addr.(type) {
	case *affine:
		ev.addr = a
	case vUnknown:
		ev.why = a.reason
	default:
		ev.why = fmt.Sprintf("address of unexpected kind %T", addr)
	}
	in.events = append(in.events, ev)
}

// ---- statements --------------------------------------------------------

func (in *interp) execBlock(stmts []ast.Stmt, env *scope) error {
	for _, st := range stmts {
		if err := in.execStmt(st, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) execStmt(st ast.Stmt, env *scope) error {
	if err := in.burn(); err != nil {
		return err
	}
	switch s := st.(type) {
	case *ast.BlockStmt:
		return in.execBlock(s.List, newScope(env))
	case *ast.ExprStmt:
		_, err := in.eval(s.X, env)
		return err
	case *ast.AssignStmt:
		return in.execAssign(s, env)
	case *ast.IncDecStmt:
		delta := int64(1)
		if s.Tok == token.DEC {
			delta = -1
		}
		cur, err := in.eval(s.X, env)
		if err != nil {
			return err
		}
		var nv value
		if a, ok := asAffine(cur); ok {
			nv = aAdd(a, aConst(delta))
		} else {
			nv = cur // unknown stays unknown
		}
		return in.assignTo(s.X, nv, env)
	case *ast.DeclStmt:
		return in.execDecl(s.Decl, env)
	case *ast.ReturnStmt:
		var vals vTuple
		for _, r := range s.Results {
			v, err := in.eval(r, env)
			if err != nil {
				return err
			}
			if t, ok := v.(vTuple); ok && len(s.Results) == 1 {
				vals = t
			} else {
				vals = append(vals, v)
			}
		}
		return &ctrlSignal{kind: "return", vals: vals}
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return &ctrlSignal{kind: "break"}
		case token.CONTINUE:
			return &ctrlSignal{kind: "continue"}
		}
		return fmt.Errorf("specgen: unsupported branch %s", s.Tok)
	case *ast.IfStmt:
		return in.execIf(s, env)
	case *ast.SwitchStmt:
		return in.execSwitch(s, env)
	case *ast.ForStmt:
		return in.execFor(s, env)
	case *ast.RangeStmt:
		return in.execRange(s, env)
	case *ast.EmptyStmt:
		return nil
	case *ast.LabeledStmt:
		return in.execStmt(s.Stmt, env)
	default:
		in.note("skipped unsupported statement %T", st)
		return nil
	}
}

func (in *interp) execDecl(d ast.Decl, env *scope) error {
	gd, ok := d.(*ast.GenDecl)
	if !ok {
		return nil
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			var v value
			switch {
			case i < len(vs.Values):
				ev, err := in.eval(vs.Values[i], env)
				if err != nil {
					return err
				}
				v = ev
			case vs.Type != nil:
				v = in.zeroValue(vs.Type, env)
			default:
				v = unknown("uninitialized variable")
			}
			env.define(name.Name, v)
		}
		// `var a, b T` with a single typed zero value and no inits is
		// covered above; `x, y := f()` tuple spreading happens in
		// AssignStmt, not here.
	}
	return nil
}

// zeroValue builds the zero value of a declared type, tracking struct
// fields and fixed-size arrays so later writes land somewhere.
func (in *interp) zeroValue(t ast.Expr, env *scope) value {
	switch tt := t.(type) {
	case *ast.Ident:
		switch tt.Name {
		case "int", "int8", "int16", "int32", "int64",
			"uint", "uint8", "uint16", "uint32", "uint64", "byte", "uintptr":
			return vInt(0)
		case "bool":
			return vBool(false)
		case "string":
			return vStr("")
		case "float32", "float64", "complex64", "complex128":
			return unknown("float zero value")
		}
		if st := in.pkg.structType(tt.Name); st != nil {
			s := newStruct(tt.Name)
			for _, f := range st.Fields.List {
				for _, fn := range f.Names {
					s.fields[fn.Name] = in.zeroValue(f.Type, env)
				}
			}
			return s
		}
		return unknown("zero value of type " + tt.Name)
	case *ast.ArrayType:
		if tt.Len != nil {
			if n, err := in.eval(tt.Len, env); err == nil {
				if c, ok := asConcrete(n); ok && c >= 0 && c <= 1024 {
					elems := make([]value, c)
					for i := range elems {
						elems[i] = in.zeroValue(tt.Elt, env)
					}
					return &vSlice{length: aConst(c), elems: elems}
				}
			}
		}
		return &vSlice{length: aConst(0)}
	case *ast.StarExpr, *ast.FuncType, *ast.InterfaceType:
		return unknown("nil zero value")
	case *ast.SelectorExpr:
		return unknown("zero value of imported type")
	case *ast.MapType:
		return &vMap{entries: map[string]value{}}
	}
	return unknown("zero value")
}

func (in *interp) execAssign(s *ast.AssignStmt, env *scope) error {
	// Compound ops: x op= y.
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return fmt.Errorf("specgen: malformed compound assignment")
		}
		cur, err := in.eval(s.Lhs[0], env)
		if err != nil {
			return err
		}
		rhs, err := in.eval(s.Rhs[0], env)
		if err != nil {
			return err
		}
		op, ok := compoundOp(s.Tok)
		if !ok {
			return fmt.Errorf("specgen: unsupported assignment op %s", s.Tok)
		}
		nv := in.binop(op, cur, rhs)
		return in.assignTo(s.Lhs[0], nv, env)
	}

	// Evaluate all RHS first (Go semantics for parallel assignment).
	var vals []value
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		v, err := in.eval(s.Rhs[0], env)
		if err != nil {
			return err
		}
		t, ok := v.(vTuple)
		if !ok || len(t) != len(s.Lhs) {
			// Map index two-value form handled in eval of IndexExpr via
			// tuple; anything else degrades to unknowns.
			t = make(vTuple, len(s.Lhs))
			for i := range t {
				t[i] = unknown("tuple arity mismatch")
			}
		}
		vals = t
	} else {
		for _, r := range s.Rhs {
			v, err := in.eval(r, env)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
	}
	for i, l := range s.Lhs {
		if s.Tok == token.DEFINE {
			if id, ok := l.(*ast.Ident); ok {
				// Redefine in the current scope (covers the := with one
				// new var case closely enough for the kernels).
				env.define(id.Name, vals[i])
				continue
			}
		}
		if err := in.assignTo(l, vals[i], env); err != nil {
			return err
		}
	}
	return nil
}

func compoundOp(t token.Token) (token.Token, bool) {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	}
	return token.ILLEGAL, false
}

func (in *interp) assignTo(l ast.Expr, v value, env *scope) error {
	switch t := l.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return nil
		}
		if c, ok := env.lookup(t.Name); ok {
			c.v = v
			return nil
		}
		env.define(t.Name, v)
		return nil
	case *ast.SelectorExpr:
		recv, err := in.eval(t.X, env)
		if err != nil {
			return err
		}
		if st, ok := recv.(*vStruct); ok {
			st.fields[t.Sel.Name] = v
			return nil
		}
		return nil // field write on opaque value: ignore
	case *ast.IndexExpr:
		recv, err := in.eval(t.X, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Index, env)
		if err != nil {
			return err
		}
		switch r := recv.(type) {
		case *vSlice:
			if c, ok := asConcrete(idx); ok && r.elems != nil && c >= 0 && int(c) < len(r.elems) {
				r.elems[c] = v
				return nil
			}
			if !r.dirty {
				r.dirty = true
				if why, bad := whyUnknown(idx); bad {
					r.why = why
				} else {
					r.why = "element stored at symbolic index"
				}
			}
			return nil
		case *vMap:
			if k, ok := idx.(vStr); ok {
				r.entries[string(k)] = v
			}
			return nil
		}
		return nil
	case *ast.StarExpr:
		return in.assignTo(t.X, v, env)
	case *ast.ParenExpr:
		return in.assignTo(t.X, v, env)
	}
	in.note("skipped assignment to unsupported lvalue %T", l)
	return nil
}

func (in *interp) execIf(s *ast.IfStmt, env *scope) error {
	env = newScope(env)
	if s.Init != nil {
		if err := in.execStmt(s.Init, env); err != nil {
			return err
		}
	}
	cond, err := in.eval(s.Cond, env)
	if err != nil {
		return err
	}
	b, ok := cond.(vBool)
	if !ok {
		// Data-dependent branch: execute neither side, widen what they
		// assign so stale concrete values cannot leak through.
		why, _ := whyUnknown(cond)
		in.widenAssigned(s.Body, env, "assigned under data-dependent branch: "+why)
		if s.Else != nil {
			in.widenAssigned(s.Else, env, "assigned under data-dependent branch: "+why)
		}
		if hasRefCalls(s.Body) || (s.Else != nil && hasRefCalls(s.Else)) {
			in.note("branch with memory references skipped on data-dependent condition (%s)", why)
		}
		return nil
	}
	if bool(b) {
		return in.execStmt(s.Body, env)
	}
	if s.Else != nil {
		return in.execStmt(s.Else, env)
	}
	return nil
}

func (in *interp) execSwitch(s *ast.SwitchStmt, env *scope) error {
	env = newScope(env)
	if s.Init != nil {
		if err := in.execStmt(s.Init, env); err != nil {
			return err
		}
	}
	var tag value = vBool(true)
	if s.Tag != nil {
		v, err := in.eval(s.Tag, env)
		if err != nil {
			return err
		}
		tag = v
	}
	var deflt *ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			v, err := in.eval(e, env)
			if err != nil {
				return err
			}
			eq := in.binop(token.EQL, tag, v)
			b, ok := eq.(vBool)
			if !ok {
				// Data-dependent selector: widen all clauses and bail.
				for _, c2 := range s.Body.List {
					in.widenAssigned(c2.(*ast.CaseClause), env, "assigned under data-dependent switch")
				}
				return nil
			}
			if bool(b) {
				err := in.execBlock(cc.Body, newScope(env))
				if cs, ok := err.(*ctrlSignal); ok && cs.kind == "break" {
					return nil
				}
				return err
			}
		}
	}
	if deflt != nil {
		err := in.execBlock(deflt.Body, newScope(env))
		if cs, ok := err.(*ctrlSignal); ok && cs.kind == "break" {
			return nil
		}
		return err
	}
	return nil
}

// widenAssigned taints every outer-scope variable a skipped region would
// have assigned, and dirties indexed containers, so skipping a
// data-dependent branch never leaves stale concrete state behind.
func (in *interp) widenAssigned(n ast.Node, env *scope, why string) {
	local := map[string]bool{}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
				return true
			}
			for _, l := range s.Lhs {
				in.widenTarget(l, env, local, why)
			}
		case *ast.IncDecStmt:
			in.widenTarget(s.X, env, local, why)
		}
		return true
	})
}

func (in *interp) widenTarget(l ast.Expr, env *scope, local map[string]bool, why string) {
	switch t := l.(type) {
	case *ast.Ident:
		if local[t.Name] {
			return
		}
		if c, ok := env.lookup(t.Name); ok {
			if _, already := c.v.(vUnknown); !already {
				c.v = unknown(why)
			}
		}
	case *ast.IndexExpr:
		if v, err := in.eval(t.X, env); err == nil {
			if sl, ok := v.(*vSlice); ok && !sl.dirty {
				sl.dirty, sl.why = true, why
			}
		}
	case *ast.SelectorExpr:
		if v, err := in.eval(t.X, env); err == nil {
			if st, ok := v.(*vStruct); ok {
				if id := t.Sel.Name; id != "" {
					st.fields[id] = unknown(why)
				}
			}
		}
	}
}
