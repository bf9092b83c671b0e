package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph and rejects
// cycles.  Nodes are lock classes — one per mutex field per type (e.g.
// core.Host.mu) or per package-level mutex variable (e.g. repl.tracemu);
// an edge A→B means some code path acquires B while holding A.  With the
// propagation workers, the reconciliation and the scrub daemons all
// interleaving over the same hosts, any cycle in this graph is a latent
// deadlock that only needs the right two goroutines to line up.
//
// The analysis is interprocedural over statically resolvable calls: each
// function gets a summary of its direct acquisitions and call sites (each
// with the lock classes held at that point, from the lockflow engine),
// then a fixpoint propagates transitive acquisitions through the static
// call graph.  Interface-method calls cannot be resolved and are skipped;
// same-class edges (two instances of one type, e.g. a pair of peer
// layers) are out of scope for a class-level graph and ignored.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "cross-package lock-acquisition graph (edge = acquired B while holding A) " +
		"must be acyclic; a cycle is a latent deadlock between daemons",
	InScope:   lockScope,
	RunModule: runLockOrder,
}

// lockAcq is one direct acquisition site: the class acquired and the
// classes held at that moment.
type lockAcq struct {
	class string
	held  []string
	pos   token.Pos
	pkg   *Package
}

// lockCallSite is one statically resolved call with held classes.
type lockCallSite struct {
	callee *types.Func
	held   []string
	pos    token.Pos
	pkg    *Package
}

type lockSummary struct {
	acquires []lockAcq
	calls    []lockCallSite
}

func runLockOrder(pass *ModulePass) {
	summaries := make(map[*types.Func]*lockSummary)
	var order []*types.Func // deterministic iteration order

	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				sum := summarizeLocks(pkg, fn)
				summaries[obj] = sum
				order = append(order, obj)
			}
		}
	}

	// Fixpoint: transitive acquisition classes per function.
	trans := make(map[*types.Func]map[string]bool)
	for _, fn := range order {
		set := make(map[string]bool)
		for _, a := range summaries[fn].acquires {
			set[a.class] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			set := trans[fn]
			for _, cs := range summaries[fn].calls {
				for c := range trans[cs.callee] {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges: held → acquired, with a representative position each.
	type edge struct{ from, to string }
	edges := make(map[edge]lockAcq)
	addEdge := func(from, to string, at lockAcq) {
		if from == to {
			return // distinct instances of one class; not a class-level order
		}
		e := edge{from, to}
		if prev, ok := edges[e]; !ok || at.pkg.Fset.Position(at.pos).String() < prev.pkg.Fset.Position(prev.pos).String() {
			edges[e] = at
		}
	}
	for _, fn := range order {
		for _, a := range summaries[fn].acquires {
			for _, h := range a.held {
				addEdge(h, a.class, a)
			}
		}
		for _, cs := range summaries[fn].calls {
			for c := range trans[cs.callee] {
				for _, h := range cs.held {
					addEdge(h, c, lockAcq{class: c, pos: cs.pos, pkg: cs.pkg})
				}
			}
		}
	}

	// Cycle detection over the class graph.
	adj := make(map[string][]string)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}
	var nodes []string
	for e := range edges {
		nodes = append(nodes, e.from, e.to)
	}
	sort.Strings(nodes)
	nodes = dedupeStrings(nodes)

	reported := make(map[string]bool)
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var visit func(n string)
	visit = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch state[m] {
			case 0:
				visit(m)
			case 1:
				// Found a cycle: stack from m's position to n, then back.
				i := 0
				for j, s := range stack {
					if s == m {
						i = j
						break
					}
				}
				cycle := append(append([]string{}, stack[i:]...), m)
				key := strings.Join(cycle, "→")
				if !reported[key] {
					reported[key] = true
					at := edges[edge{n, m}]
					pass.Reportf(at.pkg, at.pos, "lock-order cycle: %s; some path acquires %s while holding %s, closing the loop",
						strings.Join(cycle, " → "), m, n)
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	for _, n := range nodes {
		if state[n] == 0 {
			visit(n)
		}
	}
}

// summarizeLocks runs the lockflow engine over one function, recording
// direct acquisitions and resolvable call sites with held classes.
func summarizeLocks(pkg *Package, fn *ast.FuncDecl) *lockSummary {
	sum := &lockSummary{}
	flow := &lockFlow{
		info: pkg.Info,
		onLock: func(call *ast.CallExpr, key lockKey, read bool, held heldSet) {
			class := lockClass(pkg, call)
			if class == "" {
				return
			}
			sum.acquires = append(sum.acquires, lockAcq{
				class: class,
				held:  heldClasses(pkg, held),
				pos:   call.Pos(),
				pkg:   pkg,
			})
		},
		onCall: func(call *ast.CallExpr, held heldSet) {
			callee := staticCallee(pkg.Info, call)
			if callee == nil {
				return
			}
			sum.calls = append(sum.calls, lockCallSite{
				callee: callee,
				held:   heldClasses(pkg, held),
				pos:    call.Pos(),
				pkg:    pkg,
			})
		},
	}
	flow.walkFunc(fn.Body, heldSet{})
	return sum
}

// lockClass names the class of the mutex being locked by call: the
// owning type of the mutex field ("pkg.Type.field") or the package-level
// variable ("pkg.var").  Locally owned mutexes have no class.
func lockClass(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return mutexClass(pkg, sel.X)
}

// mutexClass classifies a mutex expression.
func mutexClass(pkg *Package, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return "" // local or unresolvable
	case *ast.SelectorExpr:
		// x.Sel is the mutex field; its class is the named type of x.X.
		t := pkg.Info.TypeOf(x.X)
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
		return ""
	case *ast.ParenExpr:
		return mutexClass(pkg, x.X)
	case *ast.StarExpr:
		return mutexClass(pkg, x.X)
	}
	return ""
}

// heldClasses maps a held set to its sorted class names.  The synthetic
// "assumed" hold of *Locked receivers has no class here — lockorder sees
// those holds at the caller's real Lock() site instead.
func heldClasses(pkg *Package, held heldSet) []string {
	var out []string
	for key := range held {
		if key.path == assumedPath {
			continue
		}
		// Rebuild the class from the key path's field name plus root type.
		if c := classOfKey(pkg, key); c != "" {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return dedupeStrings(out)
}

// classOfKey derives the lock class from a held-set key: the final path
// segment is the mutex field; walk the root's type through the preceding
// segments to find the owning type.
func classOfKey(pkg *Package, key lockKey) string {
	segs := strings.Split(key.path, ".")
	if len(segs) == 1 {
		// Bare identifier: package-level mutex var, or a local (no class).
		if v, ok := key.root.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return ""
	}
	t := key.root.Type()
	for _, seg := range segs[1 : len(segs)-1] {
		t = fieldType(t, seg)
		if t == nil {
			return ""
		}
	}
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + segs[len(segs)-1]
	}
	return ""
}

// fieldType resolves the type of the named field on t.
func fieldType(t types.Type, name string) types.Type {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i).Type()
		}
	}
	return nil
}

// staticCallee resolves the called function when it is a plain function
// or a concrete method; interface methods and function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if types.IsInterface(t) {
			return nil
		}
	}
	return fn
}

func dedupeStrings(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
