package lint

// oblivious-taint: a flow-sensitive complement to oblivious-payload. The
// syntactic check catches a handler that branches on its payload parameter
// directly; this one tracks values *derived* from a payload — through
// assignments, composite literals, struct fields, function returns,
// closures, and (since the module-wide rewrite) call arguments crossing
// function and package boundaries — and flags any branch whose condition
// depends on one. Under the paper's model a pulse carries zero information,
// so payload-dependent control flow anywhere reachable from an oblivious
// package is a soundness hole even when the payload parameter itself never
// appears in a condition.
//
// The analysis is a def-use fixed point over go/types objects, built on
// the standard library only:
//
//   - scope: the analyzed oblivious package plus every module package it
//     transitively imports (resolved through callgraph.go), so taint
//     follows a payload handed to a helper in another package;
//   - seeds: every named parameter of the pulse type in any function,
//     method, or closure of the analyzed package (the payload enters the
//     module only through handler parameters);
//   - propagation: an assignment (including := and tuple forms), variable
//     declaration with initializer, or range clause whose source is
//     tainted taints its targets; a keyed struct literal taints both the
//     literal and the named field object; a function or closure returning
//     a tainted value taints every call of it (a closure stored in a
//     variable taints calls through that variable); a call passing a
//     tainted argument taints the callee's parameter object, and a method
//     call on a tainted value taints the method's receiver object —
//     parameter and receiver objects are shared with the callee's body
//     under one Loader, so the taint is visible wherever the body is.
//     Dynamic calls (interface methods, func values) devirtualize against
//     the module-wide type-set index (callgraph.go): every candidate
//     callee's parameters and receiver taint, and a call is result-tainted
//     when any candidate is — an over-approximation, the safe direction
//     for a taint analysis;
//   - sinks: if/for conditions, switch tags and case expressions, and
//     type-switch subjects — reported in the analyzed package always, and
//     in scope packages that are not themselves oblivious (an oblivious
//     dependency reports its own sinks when its turn comes, never twice).
//
// The seed set is deliberately exactly the pulse-typed parameters. In
// particular the count parameter of the batch interface —
// node.BatchMachine.OnPulses(p, k, e) — is a plain uint64 and never
// seeds: a run length is arrival multiplicity, the one
// quantity a content-oblivious channel legitimately conveys (k queued
// pulses ARE the integer k), so branching on it is as model-legal as
// branching on the port. The pulse-typed port parameter p doesn't seed
// either (ports are wiring, not content; only the payload type
// configured as PulseType does). What the batch path cannot do is
// launder content through the handler: a payload stashed by OnMsg into
// a field and branched on inside OnPulses is payload-derived control
// flow like any other and still fires — fixt/taint's Batched fixture
// pins both halves of this contract.
//
// Taint is field-granular (a tainted assignment to s.f taints the field
// object f, not the whole struct), branch-sensitive at the sink (every
// condition, tag, and case expression is tested separately), and monotone,
// so the fixed point terminates; it is deliberately conservative (a
// variable once tainted stays tainted) because in this model there is no
// legitimate way to launder a payload.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// taintState is the monotone fact base of the fixed point. p is the
// package currently being walked (facts themselves are cross-package:
// go/types objects are shared under one Loader); g resolves call sites,
// including dynamic ones, through the module graph.
type taintState struct {
	p *Package
	g *moduleGraph

	// objs holds tainted variables: parameters, locals, struct fields,
	// receivers, and package-level vars.
	objs map[types.Object]bool

	// funcs holds callables whose call results are tainted: declared
	// functions/methods (*types.Func) and variables bound to tainted
	// closures (*types.Var).
	funcs map[types.Object]bool

	// lits holds closure literals whose results are tainted.
	lits map[*ast.FuncLit]bool

	changed bool
}

func (s *taintState) taintObj(o types.Object) {
	if o == nil || s.objs[o] {
		return
	}
	s.objs[o] = true
	s.changed = true
}

func (s *taintState) taintFunc(o types.Object) {
	if o == nil || s.funcs[o] {
		return
	}
	s.funcs[o] = true
	s.changed = true
}

func (s *taintState) taintLit(fl *ast.FuncLit) {
	if fl == nil || s.lits[fl] {
		return
	}
	s.lits[fl] = true
	s.changed = true
}

func checkObliviousTaint(r *Runner, p *Package, report func(token.Pos, string, string)) {
	if !matchPath(p.Path, r.Config.Oblivious) {
		return
	}
	g := r.module()
	scope := taintScope(g, p)
	st := &taintState{
		p:     p,
		g:     g,
		objs:  make(map[types.Object]bool),
		funcs: make(map[types.Object]bool),
		lits:  make(map[*ast.FuncLit]bool),
	}

	// Seed: every named pulse-typed parameter in the analyzed package. The
	// payload reaches an algorithm only as a parameter (handlers and the
	// helpers they forward to), so parameters are the complete source set;
	// dependency packages pick up taint through call-argument propagation,
	// never by seeding (their own pulse params are their own analysis).
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var params *ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				params = n.Type.Params
			case *ast.FuncLit:
				params = n.Type.Params
			default:
				return true
			}
			for _, field := range params.List {
				for _, name := range field.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if ok && name.Name != "_" && typeName(v.Type()) == r.Config.PulseType {
						st.objs[v] = true
					}
				}
			}
			return true
		})
	}
	if len(st.objs) == 0 {
		return
	}

	// Fixed point: propagate until no new object, function, or closure
	// becomes tainted, across every package in scope.
	for {
		st.changed = false
		for _, sp := range scope {
			st.p = sp
			for _, f := range sp.Files {
				propagateTaint(st, f)
			}
		}
		if !st.changed {
			break
		}
	}

	// Sinks: payload-derived control flow. Oblivious dependencies own
	// their sinks (they are analyzed in their own right with their own
	// seeds plus the shared object facts); skipping them here keeps each
	// finding attributed to exactly one package.
	for _, sp := range scope {
		if sp != p && matchPath(sp.Path, r.Config.Oblivious) {
			continue
		}
		st.p = sp
		for _, f := range sp.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					reportTaintedCond(st, n.Cond, report)
				case *ast.ForStmt:
					reportTaintedCond(st, n.Cond, report)
				case *ast.SwitchStmt:
					reportTaintedCond(st, n.Tag, report)
					for _, cc := range caseExprs(n.Body) {
						reportTaintedCond(st, cc, report)
					}
				case *ast.TypeSwitchStmt:
					if a, ok := n.Assign.(*ast.ExprStmt); ok {
						if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
							reportTaintedCond(st, ta.X, report)
						}
					}
				}
				return true
			})
		}
	}
}

// taintScope returns the analyzed package followed by its transitive
// module-resolvable imports in deterministic (breadth-first, sorted)
// order.
func taintScope(g *moduleGraph, p *Package) []*Package {
	g.add(p)
	scope := []*Package{p}
	seen := map[string]bool{p.Path: true}
	for i := 0; i < len(scope); i++ {
		imps := scope[i].Types.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if seen[path] {
				continue
			}
			seen[path] = true
			if dp := g.resolve(path); dp != nil {
				scope = append(scope, dp)
			}
		}
	}
	return scope
}

func caseExprs(body *ast.BlockStmt) []ast.Expr {
	var out []ast.Expr
	for _, stmt := range body.List {
		if cc, ok := stmt.(*ast.CaseClause); ok {
			out = append(out, cc.List...)
		}
	}
	return out
}

func reportTaintedCond(st *taintState, cond ast.Expr, report func(token.Pos, string, string)) {
	if cond == nil || !exprTainted(st, cond) {
		return
	}
	report(cond.Pos(), CheckObliviousTaint,
		fmt.Sprintf("branch condition %q is derived from a pulse payload (content-obliviousness: behaviour may depend only on arrival order and ports, and a pulse carries no information)",
			types.ExprString(cond)))
}

// propagateTaint runs one monotone propagation pass over a file.
func propagateTaint(st *taintState, f *ast.File) {
	// funcStack tracks the enclosing function for return statements:
	// either an *ast.FuncDecl or an *ast.FuncLit.
	var funcStack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		pushed := false
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			funcStack = append(funcStack, n)
			pushed = true
		case *ast.AssignStmt:
			propagateAssign(st, n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			propagateAssign(st, lhs, n.Values)
		case *ast.RangeStmt:
			if exprTainted(st, n.X) {
				taintTarget(st, n.Key)
				taintTarget(st, n.Value)
			}
		case *ast.CallExpr:
			propagateCall(st, n)
		case *ast.ReturnStmt:
			if len(funcStack) > 0 && anyTainted(st, n.Results) {
				taintEnclosing(st, funcStack[len(funcStack)-1])
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c)
			return false
		})
		if pushed {
			funcStack = funcStack[:len(funcStack)-1]
		}
	}
	walk(f)
}

// propagateCall carries taint into a call: a tainted argument taints the
// matching parameter object of every candidate callee — the concrete one
// for static calls, every devirtualized implementation or bound closure
// for dynamic ones — and a tainted method-call base taints each
// candidate's receiver object. The objects are the very ones the callee
// body's identifiers resolve to, so the fixed point picks the taint up
// inside the body on the next pass — in whatever package the body lives.
func propagateCall(st *taintState, call *ast.CallExpr) {
	if tv, ok := st.p.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return // conversions/builtins: handled by exprTainted pass-through
	}
	cands, _ := st.g.resolveCall(st.p, call)
	for _, c := range cands {
		sig := c.sig()
		if sig == nil {
			continue
		}
		if recv := sig.Recv(); recv != nil {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && exprTainted(st, sel.X) {
				st.taintObj(recv)
			}
		}
		np := sig.Params().Len()
		if np == 0 {
			continue
		}
		for i, arg := range call.Args {
			if !exprTainted(st, arg) {
				continue
			}
			pi := i
			if pi >= np {
				if !sig.Variadic() {
					continue
				}
				pi = np - 1
			}
			st.taintObj(sig.Params().At(pi))
		}
	}
}

func taintEnclosing(st *taintState, fn ast.Node) {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		st.taintFunc(st.p.Info.Defs[fn.Name])
	case *ast.FuncLit:
		st.taintLit(fn)
	}
}

func anyTainted(st *taintState, exprs []ast.Expr) bool {
	for _, e := range exprs {
		if exprTainted(st, e) {
			return true
		}
	}
	return false
}

// propagateAssign handles both pairwise (a, b = x, y) and tuple
// (a, b = f()) assignment shapes.
func propagateAssign(st *taintState, lhs, rhs []ast.Expr) {
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		if exprTainted(st, rhs[0]) {
			for _, l := range lhs {
				taintTarget(st, l)
			}
		}
	default:
		for i, r := range rhs {
			if i >= len(lhs) {
				break
			}
			// Binding a closure to a variable carries the closure's
			// result-taint onto the variable, so calls through it taint.
			if fl, ok := unparen(r).(*ast.FuncLit); ok && st.lits[fl] {
				if id, ok := unparen(lhs[i]).(*ast.Ident); ok {
					st.taintFunc(objOf(st.p, id))
				}
			}
			if exprTainted(st, r) {
				taintTarget(st, lhs[i])
			}
		}
	}
}

// taintTarget taints the object an assignment target stores into: an
// identifier, a struct field selector, or the base of an index/deref.
func taintTarget(st *taintState, e ast.Expr) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		st.taintObj(objOf(st.p, e))
	case *ast.SelectorExpr:
		if s, ok := st.p.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			st.taintObj(s.Obj())
		}
	case *ast.IndexExpr:
		taintTarget(st, e.X)
	case *ast.StarExpr:
		taintTarget(st, e.X)
	}
}

// objOf resolves an identifier to its object in either Defs or Uses.
func objOf(p *Package, id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// exprTainted reports whether the value of e derives from a pulse payload
// under the current fact base.
func exprTainted(st *taintState, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return st.objs[objOf(st.p, e)]
	case *ast.SelectorExpr:
		if s, ok := st.p.Info.Selections[e]; ok {
			if st.objs[s.Obj()] {
				return true
			}
		}
		// A field of a tainted struct value is tainted even if the field
		// object itself never appeared on an assignment's left-hand side.
		return exprTainted(st, e.X)
	case *ast.CallExpr:
		if tv, ok := st.p.Info.Types[e.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			// Conversions and builtins (len, cap, ...) pass taint through.
			return anyTainted(st, e.Args)
		}
		switch fun := unparen(e.Fun).(type) {
		case *ast.Ident:
			if st.funcs[objOf(st.p, fun)] {
				return true
			}
		case *ast.SelectorExpr:
			if st.funcs[st.p.Info.Uses[fun.Sel]] {
				return true
			}
		case *ast.FuncLit:
			if st.lits[fun] {
				return true
			}
		}
		// A devirtualized dynamic call is result-tainted when any candidate
		// callee is (the candidates' own result-taint is established by the
		// return-statement pass over their bodies).
		cands, _ := st.g.resolveCall(st.p, e)
		for _, c := range cands {
			if (c.fn != nil && st.funcs[c.fn]) || (c.lit != nil && st.lits[c.lit]) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return exprTainted(st, e.X) || exprTainted(st, e.Y)
	case *ast.UnaryExpr:
		return exprTainted(st, e.X)
	case *ast.StarExpr:
		return exprTainted(st, e.X)
	case *ast.ParenExpr:
		return exprTainted(st, e.X)
	case *ast.TypeAssertExpr:
		return exprTainted(st, e.X)
	case *ast.IndexExpr:
		return exprTainted(st, e.X)
	case *ast.SliceExpr:
		return exprTainted(st, e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
				// A keyed struct literal also taints the field object, so
				// later reads through any value of the type are caught.
				if exprTainted(st, v) {
					if key, ok := kv.Key.(*ast.Ident); ok {
						st.taintObj(st.p.Info.Uses[key])
					}
				}
			}
			if exprTainted(st, v) {
				return true
			}
		}
		return false
	}
	return false
}
