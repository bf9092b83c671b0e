package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids wall-clock and global-randomness calls in the
// simulation-critical packages and flags map iteration whose order can
// reach serialized output.  The chaos tests (PR 1) replay injected faults
// from a seed over a virtual clock; any hidden nondeterminism voids the
// replay and the EXPERIMENTS.md numbers.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Sleep/global math/rand and unsorted map iteration " +
		"reaching encoders or collected output in the simulation-critical packages",
	InScope: segScope("sim", "simnet", "core", "recon", "repl", "physical", "avail", "workload"),
	Run:     runDeterminism,
}

// forbiddenTime is the wall-clock surface of package time.  The stack's
// clocks are virtual (daemon ticks); these functions smuggle in real time.
var forbiddenTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// allowedRand is the seedable, explicit part of math/rand; every other
// package-level function uses the shared global source and breaks replay.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// orderedSinkPrefixes match calls that serialize, hash, or emit their
// arguments: reaching one from inside a map range leaks iteration order
// into output.
var orderedSinkPrefixes = []string{
	"Write", "Fprint", "Print", "Encode", "Marshal", "Serialize",
	"Sum", "Hash",
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		checkDeterminismCalls(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch b := n.(type) {
			case *ast.BlockStmt:
				checkMapRanges(pass, b.List)
			case *ast.CaseClause:
				checkMapRanges(pass, b.Body)
			case *ast.CommClause:
				checkMapRanges(pass, b.Body)
			}
			return true
		})
	}
}

// checkDeterminismCalls flags wall-clock and global-rand calls anywhere in
// the file.
func checkDeterminismCalls(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods (e.g. on a seeded *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTime[fn.Name()] {
				pass.Reportf(call.Pos(), "time.%s breaks simulation determinism; use the virtual daemon-tick clock", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				pass.Reportf(call.Pos(), "global rand.%s uses the shared unseeded source; use rand.New(rand.NewSource(seed))", fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges examines one statement list: a range over a map either
// serializes inside its body (ordered sink) or collects into slices that
// must then be sorted later in the same list.
func checkMapRanges(pass *Pass, stmts []ast.Stmt) {
	info := pass.Pkg.Info
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		checkOneMapRange(pass, rng, stmts[i+1:])
	}
}

// checkOneMapRange classifies one map-range body.
func checkOneMapRange(pass *Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	info := pass.Pkg.Info
	sinkName := ""
	appendTargets := make(map[types.Object]bool)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if sinkName == "" && isOrderedSink(name) {
			sinkName = name
		}
		if name == "append" && len(call.Args) > 0 {
			if obj := rootObject(info, call.Args[0]); obj != nil {
				appendTargets[obj] = true
			}
		}
		return true
	})
	switch {
	case sinkName != "":
		pass.Reportf(rng.Pos(), "map iteration order reaches %s; sort the keys first (or mark //ficusvet:sorted)", sinkName)
	case len(appendTargets) > 0 && !sortedLater(info, rest, appendTargets):
		pass.Reportf(rng.Pos(), "slice collected from map iteration is never sorted; iteration order leaks into output (sort it or mark //ficusvet:sorted)")
	}
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func isOrderedSink(name string) bool {
	for _, p := range orderedSinkPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// rootObject unwraps selectors/indexes/parens/derefs to the base
// identifier's object, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sortedLater reports whether a statement after the range sorts one of the
// collected slices: any sort.* or slices.* call taking the target, or a
// Sort method on it.
func sortedLater(info *types.Info, rest []ast.Stmt, targets map[types.Object]bool) bool {
	found := false
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sortingCall := false
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "sort", "slices":
						sortingCall = true
					}
				}
				if sel.Sel.Name == "Sort" { // target.Sort()
					if obj := rootObject(info, sel.X); obj != nil && targets[obj] {
						found = true
					}
				}
			}
			if !sortingCall {
				return true
			}
			for _, arg := range call.Args {
				if obj := rootObject(info, arg); obj != nil && targets[obj] {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
