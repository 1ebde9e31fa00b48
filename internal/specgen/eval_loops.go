package specgen

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// postTarget is one variable advanced by a loop's post statement, with its
// concrete per-iteration delta.
type postTarget struct {
	name  string
	cell  *cell
	init  *affine
	delta int64
}

// classifyPost recognizes the affine post-statement forms: v++ / v--,
// v += c / v -= c with concrete c, and the parallel form i, j = i-1, j-1.
// All loop variables must already be bound to affine values.
func (in *interp) classifyPost(post ast.Stmt, env *scope) ([]postTarget, bool) {
	grab := func(name string, delta int64) (postTarget, bool) {
		c, ok := env.lookup(name)
		if !ok {
			return postTarget{}, false
		}
		init, ok := asAffine(c.v)
		if !ok {
			return postTarget{}, false
		}
		return postTarget{name: name, cell: c, init: init, delta: delta}, true
	}
	switch p := post.(type) {
	case *ast.IncDecStmt:
		id, ok := p.X.(*ast.Ident)
		if !ok {
			return nil, false
		}
		d := int64(1)
		if p.Tok == token.DEC {
			d = -1
		}
		t, ok := grab(id.Name, d)
		if !ok {
			return nil, false
		}
		return []postTarget{t}, true
	case *ast.AssignStmt:
		switch p.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			if len(p.Lhs) != 1 || len(p.Rhs) != 1 {
				return nil, false
			}
			id, ok := p.Lhs[0].(*ast.Ident)
			if !ok {
				return nil, false
			}
			v, err := in.eval(p.Rhs[0], env)
			if err != nil {
				return nil, false
			}
			d, ok := asConcrete(v)
			if !ok {
				return nil, false
			}
			if p.Tok == token.SUB_ASSIGN {
				d = -d
			}
			t, ok := grab(id.Name, d)
			if !ok || d == 0 {
				return nil, false
			}
			return []postTarget{t}, true
		case token.ASSIGN:
			// Parallel form: every RHS must be (current LHS value) + const.
			if len(p.Lhs) != len(p.Rhs) {
				return nil, false
			}
			var out []postTarget
			for i, l := range p.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					return nil, false
				}
				cur, okc := env.lookup(id.Name)
				if !okc {
					return nil, false
				}
				curA, okc := asAffine(cur.v)
				if !okc {
					return nil, false
				}
				rv, err := in.eval(p.Rhs[i], env)
				if err != nil {
					return nil, false
				}
				ra, okr := asAffine(rv)
				if !okr {
					return nil, false
				}
				diff := aSub(ra, curA)
				if !diff.isConst() || diff.c0 == 0 {
					return nil, false
				}
				out = append(out, postTarget{name: id.Name, cell: cur, init: curA, delta: diff.c0})
			}
			return out, len(out) > 0
		}
	}
	return nil, false
}

func condConjuncts(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return append(condConjuncts(b.X), condConjuncts(b.Y)...)
	}
	if p, ok := e.(*ast.ParenExpr); ok {
		return condConjuncts(p.X)
	}
	return []ast.Expr{e}
}

// conjunctCount turns one comparison conjunct into the affine iteration
// count of the loop: the number of times the body runs before the conjunct
// fails, as a function of outer induction variables. The second result is
// false when the count is a rectangular upper bound rather than the exact
// per-iteration count (non-unit step against a symbolic bound).
func (in *interp) conjunctCount(c ast.Expr, targets []postTarget, env *scope) (*affine, bool, bool) {
	b, ok := c.(*ast.BinaryExpr)
	if !ok {
		return nil, false, false
	}
	op := b.Op
	lhs, rhs := b.X, b.Y
	var tgt *postTarget
	if id, ok := lhs.(*ast.Ident); ok {
		for i := range targets {
			if targets[i].name == id.Name {
				tgt = &targets[i]
			}
		}
	}
	if tgt == nil {
		// Flipped form E op v.
		if id, ok := rhs.(*ast.Ident); ok {
			for i := range targets {
				if targets[i].name == id.Name {
					tgt = &targets[i]
				}
			}
			if tgt != nil {
				lhs, rhs = rhs, lhs
				switch op {
				case token.LSS:
					op = token.GTR
				case token.LEQ:
					op = token.GEQ
				case token.GTR:
					op = token.LSS
				case token.GEQ:
					op = token.LEQ
				}
			}
		}
	}
	if tgt == nil {
		return nil, false, false
	}
	bv, err := in.eval(rhs, env)
	if err != nil {
		return nil, false, false
	}
	bound, ok := asAffine(bv)
	if !ok {
		return nil, false, false
	}
	d := tgt.delta
	switch {
	case d > 0 && op == token.LSS: // v < E: ceil((E-init)/d)
		return ceilDivCount(aSub(bound, tgt.init), d)
	case d > 0 && op == token.LEQ: // v <= E: floor((E-init)/d)+1
		return floorDivPlusOne(aSub(bound, tgt.init), d)
	case d < 0 && op == token.GTR: // v > E: ceil((init-E)/|d|)
		return ceilDivCount(aSub(tgt.init, bound), -d)
	case d < 0 && op == token.GEQ: // v >= E: floor((init-E)/|d|)+1
		return floorDivPlusOne(aSub(tgt.init, bound), -d)
	}
	return nil, false, false
}

func ceilDivCount(num *affine, d int64) (*affine, bool, bool) {
	if d == 1 {
		return num, true, true
	}
	if num.isConst() {
		n := num.c0
		if n <= 0 {
			return aConst(0), true, true
		}
		return aConst((n + d - 1) / d), true, true
	}
	// Symbolic distance with a non-unit step: ceil() is not affine, so fall
	// back to the rectangular maximum of the distance over the enclosing
	// domain. Inexact — the caller must not derive last-iteration values.
	_, hi := rangeOf(num)
	if hi <= 0 {
		return aConst(0), true, true
	}
	return aConst((hi + d - 1) / d), false, true
}

func floorDivPlusOne(num *affine, d int64) (*affine, bool, bool) {
	if d == 1 {
		return aAdd(num, aConst(1)), true, true
	}
	if num.isConst() {
		n := num.c0
		if n < 0 {
			return aConst(0), true, true
		}
		return aConst(n/d + 1), true, true
	}
	_, hi := rangeOf(num)
	if hi < 0 {
		return aConst(0), true, true
	}
	return aConst(hi/d + 1), false, true
}

func (in *interp) execFor(s *ast.ForStmt, env *scope) error {
	env = newScope(env)
	if s.Init != nil {
		if err := in.execStmt(s.Init, env); err != nil {
			return err
		}
	}
	targets, affinePost := []postTarget(nil), false
	if s.Post != nil {
		targets, affinePost = in.classifyPost(s.Post, env)
	}
	if affinePost && s.Cond != nil {
		var counts []*affine
		ok, exact := true, true
		for _, c := range condConjuncts(s.Cond) {
			cnt, okx, okc := in.conjunctCount(c, targets, env)
			if !okc {
				ok = false
				break
			}
			exact = exact && okx
			counts = append(counts, cnt)
		}
		if ok {
			return in.execForAffine(s, env, targets, counts, exact)
		}
	}
	return in.execForConcrete(s, env)
}

func (in *interp) execForAffine(s *ast.ForStmt, env *scope, targets []postTarget, counts []*affine, exact bool) error {
	// Rectangularized trip: min over conjuncts of the count's maximum
	// over the enclosing iteration domain.
	trip := int64(1<<62 - 1)
	for _, cnt := range counts {
		_, hi := rangeOf(cnt)
		if hi < trip {
			trip = hi
		}
	}
	if trip <= 0 {
		// The body never runs anywhere in the domain.
		in.setExitValues(targets, counts, 0, exact)
		return nil
	}

	// A concrete short loop whose body allocates or emits builder ops must
	// run for real: its effects (arena layout, IP numbering) are what the
	// rest of the extraction depends on.
	if c := counts[0]; len(counts) == 1 && exact && c.isConst() && c.c0 <= maxEffectTrip &&
		in.bodyHasEffects(s.Body, env, 0) {
		return in.execForConcrete(s, env)
	}

	// Exact last-iteration expression when all conjunct counts agree.
	var tmax *affine
	agree := exact
	for _, cnt := range counts[1:] {
		if d := aSub(cnt, counts[0]); !d.isConst() || d.c0 != 0 {
			agree = false
		}
	}
	if agree {
		tmax = aSub(counts[0], aConst(1))
	}
	if !exact {
		in.note("loop over %s: non-unit step against a symbolic bound; trip %d is a rectangular upper bound",
			targets[0].name, trip)
	}

	iv := &ivar{
		id:       in.nextIV,
		name:     targets[0].name,
		trip:     int(trip),
		tmaxExpr: tmax,
	}
	in.nextIV++
	in.ivStack = append(in.ivStack, iv)
	defer func() { in.ivStack = in.ivStack[:len(in.ivStack)-1] }()

	// Bind loop variables affinely: v = init + delta·τ.
	skip := map[string]bool{}
	for _, t := range targets {
		t.cell.v = aAdd(t.init, aScale(aIvar(iv), t.delta))
		skip[t.name] = true
	}

	// Loop-carried state: promote concrete accumulators, widen the rest,
	// dirty indexed containers — all before the body runs, so no read can
	// see a stale first-iteration value.
	promos := in.prescanLoopBody(s.Body, env, skip)

	err := in.execStmt(s.Body, newScope(env))
	if cs, ok := err.(*ctrlSignal); ok {
		switch cs.kind {
		case "break":
			in.note("loop over %s: break taken; trip %d is an upper bound", iv.name, trip)
			err = nil
		case "continue":
			err = nil
		}
	}
	if err != nil {
		return err
	}

	// Exit values.
	in.setExitValues(targets, counts, trip, exact)
	for _, p := range promos {
		p.cell.v = aAdd(p.init, aConst(p.delta*trip))
	}
	return nil
}

func (in *interp) setExitValues(targets []postTarget, counts []*affine, trip int64, exactCounts bool) {
	if !exactCounts {
		// The rectangular count overshoots for some outer iterations;
		// a concrete exit value would be wrong wherever it does.
		for _, t := range targets {
			t.cell.v = unknown(fmt.Sprintf("exit value of %s after an inexactly-counted loop", t.name))
		}
		return
	}
	exact := len(counts) == 1
	for _, t := range targets {
		if exact {
			if prod, ok := aMul(counts[0], aConst(t.delta)); ok {
				t.cell.v = aAdd(t.init, prod)
				continue
			}
		}
		t.cell.v = aAdd(t.init, aConst(t.delta*trip))
	}
}

// execForConcrete iterates a loop for real: condition and mutated state
// must stay concrete. This is how geometric loops (half <<= 1), pointer
// setup loops (nodes += per; per *= fanout) and short allocation loops run.
func (in *interp) execForConcrete(s *ast.ForStmt, env *scope) error {
	for iter := 0; ; iter++ {
		if iter >= maxConcIters {
			in.note("concrete loop exceeded %d iterations; widening", maxConcIters)
			in.widenAssigned(s.Body, env, "runaway concrete loop")
			return nil
		}
		if s.Cond != nil {
			cv, err := in.eval(s.Cond, env)
			if err != nil {
				return err
			}
			b, ok := cv.(vBool)
			if !ok {
				why, _ := whyUnknown(cv)
				in.note("loop condition not statically evaluable (%s); body skipped", why)
				in.widenAssigned(s.Body, env, "loop with unevaluable condition: "+why)
				if hasRefCalls(s.Body) {
					in.note("loop with memory references skipped on unevaluable condition")
				}
				return nil
			}
			if !bool(b) {
				return nil
			}
		}
		err := in.execStmt(s.Body, newScope(env))
		if cs, ok := err.(*ctrlSignal); ok {
			switch cs.kind {
			case "break":
				return nil
			case "continue":
				err = nil
			}
		}
		if err != nil {
			return err
		}
		if s.Post != nil {
			if err := in.execStmt(s.Post, env); err != nil {
				return err
			}
		}
	}
}

func (in *interp) execRange(s *ast.RangeStmt, env *scope) error {
	env = newScope(env)
	xv, err := in.eval(s.X, env)
	if err != nil {
		return err
	}
	keyName, valName := "", ""
	if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	if s.Value != nil {
		if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
			valName = id.Name
		}
	}

	switch x := xv.(type) {
	case *vSlice:
		n, concLen := asConcrete(x.length)
		// Concrete unrolling: required when the body has allocation or
		// builder effects, and preferred when element values are tracked
		// and the body needs them (stencil offset tables).
		unroll := false
		if concLen && n <= int64(maxEffectTrip) && in.bodyHasEffects(s.Body, env, 0) {
			unroll = true
		}
		if concLen && valName != "" && x.elems != nil && !x.dirty && n <= maxUnrollIter {
			unroll = true
		}
		if unroll && concLen {
			for i := int64(0); i < n; i++ {
				iterEnv := newScope(env)
				if keyName != "" {
					iterEnv.define(keyName, vInt(i))
				}
				if valName != "" {
					var ev value = unknown("untracked slice element")
					if x.elems != nil && i < int64(len(x.elems)) {
						ev = x.elems[i]
					}
					iterEnv.define(valName, ev)
				}
				err := in.execStmt(s.Body, newScope(iterEnv))
				if cs, ok := err.(*ctrlSignal); ok {
					if cs.kind == "break" {
						return nil
					}
					if cs.kind == "continue" {
						err = nil
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		// Symbolic index loop.
		_, hi := rangeOf(x.length)
		if hi <= 0 {
			return nil
		}
		var tmax *affine
		if x.length != nil {
			tmax = aSub(x.length, aConst(1))
		}
		iv := &ivar{id: in.nextIV, name: "range", trip: int(hi), tmaxExpr: tmax}
		if keyName != "" {
			iv.name = keyName
		}
		in.nextIV++
		in.ivStack = append(in.ivStack, iv)
		defer func() { in.ivStack = in.ivStack[:len(in.ivStack)-1] }()
		iterEnv := newScope(env)
		if keyName != "" {
			iterEnv.define(keyName, aIvar(iv))
		}
		if valName != "" {
			why := "slice element read at symbolic index"
			if x.dirty {
				why = x.why
			}
			iterEnv.define(valName, unknown(why))
		}
		in.prescanLoopBody(s.Body, iterEnv, map[string]bool{keyName: true, valName: true})
		err := in.execStmt(s.Body, newScope(iterEnv))
		if cs, ok := err.(*ctrlSignal); ok && (cs.kind == "break" || cs.kind == "continue") {
			err = nil
		}
		return err
	case *vMap:
		keys := make([]string, 0, len(x.entries))
		for k := range x.entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			iterEnv := newScope(env)
			if keyName != "" {
				iterEnv.define(keyName, vStr(k))
			}
			if valName != "" {
				iterEnv.define(valName, x.entries[k])
			}
			err := in.execStmt(s.Body, newScope(iterEnv))
			if cs, ok := err.(*ctrlSignal); ok {
				if cs.kind == "break" {
					return nil
				}
				if cs.kind == "continue" {
					err = nil
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	default:
		why, _ := whyUnknown(xv)
		in.note("range over unanalyzable value (%s); body skipped", why)
		in.widenAssigned(s.Body, env, "range over unanalyzable value")
		return nil
	}
}

type promo struct {
	cell  *cell
	init  *affine
	delta int64
}

// prescanLoopBody prepares outer state for a single symbolic body pass:
//   - accumulators advanced by exactly one `v += c` (concrete c) are
//     promoted to affine functions of the new induction variable;
//   - every other outer variable the body assigns is widened to unknown;
//   - containers stored through at any index are dirtied.
//
// skip names the loop's own induction variables, which are already bound.
func (in *interp) prescanLoopBody(body ast.Stmt, env *scope, skip map[string]bool) []promo {
	// The evaluations below are speculative (inner loop variables are not
	// bound yet), so their failure notes would be noise.
	in.quiet++
	defer func() { in.quiet-- }()
	iv := in.ivStack[len(in.ivStack)-1]
	type accum struct {
		deltas []int64
		plain  bool
	}
	outer := map[string]*accum{}
	local := map[string]bool{}
	record := func(name string, delta int64, plain bool) {
		if name == "" || skip[name] || local[name] {
			return
		}
		if _, ok := env.lookup(name); !ok {
			return
		}
		a := outer[name]
		if a == nil {
			a = &accum{}
			outer[name] = a
		}
		if plain {
			a.plain = true
		} else {
			a.deltas = append(a.deltas, delta)
		}
	}
	ast.Inspect(body, func(nd ast.Node) bool {
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
			for i, l := range s.Lhs {
				switch t := l.(type) {
				case *ast.Ident:
					if s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN {
						if v, err := in.eval(s.Rhs[0], env); err == nil {
							if c, ok := asConcrete(v); ok {
								if s.Tok == token.SUB_ASSIGN {
									c = -c
								}
								record(t.Name, c, false)
								continue
							}
						}
					}
					record(t.Name, 0, true)
					_ = i
				case *ast.IndexExpr:
					if v, err := in.eval(t.X, env); err == nil {
						if sl, ok := v.(*vSlice); ok && !sl.dirty {
							sl.dirty, sl.why = true, "stored inside loop over "+iv.name
						}
					}
				case *ast.SelectorExpr:
					// Field writes on outer structs: widen the field.
					if v, err := in.eval(t.X, env); err == nil {
						if st, ok := v.(*vStruct); ok {
							st.fields[t.Sel.Name] = unknown("field assigned inside loop over " + iv.name)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				d := int64(1)
				if s.Tok == token.DEC {
					d = -1
				}
				record(id.Name, d, false)
			}
		}
		return true
	})
	var promos []promo
	for name, a := range outer {
		c, _ := env.lookup(name)
		if a.plain || len(a.deltas) != 1 {
			if _, already := c.v.(vUnknown); !already {
				c.v = unknown(fmt.Sprintf("loop-carried value of %s across loop over %s", name, iv.name))
			}
			continue
		}
		init, ok := asAffine(c.v)
		if !ok {
			continue // already unknown; stays unknown
		}
		d := a.deltas[0]
		c.v = aAdd(init, aScale(aIvar(iv), d))
		promos = append(promos, promo{cell: c, init: init, delta: d})
	}
	return promos
}

// bodyHasEffects reports whether executing n would allocate arena blocks or
// emit builder instructions — the effects that force concrete execution.
// Closure calls are chased through the environment to a small depth.
func (in *interp) bodyHasEffects(n ast.Node, env *scope, depth int) bool {
	if depth > 6 {
		return false
	}
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fn.X.(*ast.Ident); ok {
				if c, okc := env.lookup(id.Name); okc {
					switch c.v.(type) {
					case *vArena, *vBuilder:
						found = true
						return false
					}
				}
				if path, okp := in.pkg.imports[id.Name]; okp {
					if path == pathAlloc || path == pathObjfile {
						found = true
						return false
					}
				}
			}
		case *ast.Ident:
			if c, okc := env.lookup(fn.Name); okc {
				if cl, okcl := c.v.(*vClosure); okcl {
					if in.bodyHasEffects(cl.body, cl.env, depth+1) {
						found = true
						return false
					}
				}
			} else if fd, okf := in.pkg.funcs[fn.Name]; okf && in.root != nil {
				if in.bodyHasEffects(fd.Body, in.root, depth+1) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// hasRefCalls is a syntactic check for sink.Ref(...) calls, used only to
// flag skipped regions that would have emitted references.
func hasRefCalls(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Ref" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
