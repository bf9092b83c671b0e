package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DurabErr audits durable-write paths: device writes, sidecar/journal/
// shadow commits, renames, truncates.  An error from one of these calls
// is the only evidence a commit did not reach the disk; discarding it,
// overwriting it before anyone looks, or wrapping it with %v (which
// severs errors.Is and strips the retry.Transient classification) all
// turn a recoverable fault into silent data loss.
//
// The ufs layer is deliberately out of scope: its error-cleanup paths
// discard secondary failures on purpose while the primary error is
// already being returned.
var DurabErr = &Analyzer{
	Name: "duraberr",
	Doc: "on durable-write paths, flag discarded or shadowed error returns and " +
		"%v wrapping that strips transient-error classification",
	InScope: segScope("physical", "disk", "core"),
	Run:     runDurabErr,
}

// durableStems match functions whose failure means a durable state
// transition may not have happened.
var durableStems = []string{
	"write", "commit", "rename", "sync", "flush",
	"remove", "truncate", "seal", "create",
}

// isDurableCall reports whether call invokes a durable-write-style
// function whose last result is an error, returning the callee name.
func isDurableCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if name == "" {
		return "", false
	}
	lower := strings.ToLower(name)
	match := false
	for _, stem := range durableStems {
		if strings.Contains(lower, stem) {
			match = true
			break
		}
	}
	if !match {
		return "", false
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	// In-memory writers (strings.Builder, bytes.Buffer, hashes) return a
	// vestigial always-nil error; nothing durable is at stake.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "strings", "bytes":
				return "", false
			}
			if strings.HasPrefix(fn.Pkg().Path(), "hash") {
				return "", false
			}
		}
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if last == nil || last.String() != "error" {
		return "", false
	}
	return name, true
}

func runDurabErr(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDurabErrs(pass, fn)
		}
	}
}

func checkDurabErrs(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info

	// durableErrVars: error variables whose value came from a durable
	// call, for the %v-wrapping taint check.
	durableErrVars := make(map[types.Object]bool)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := isDurableCall(info, call); ok {
					pass.Reportf(call.Pos(), "error from durable write %s is discarded; a failed commit goes unnoticed", name)
				}
			}
		case *ast.AssignStmt:
			checkDurableAssign(pass, info, n, durableErrVars)
		case *ast.BlockStmt:
			checkShadowedErrs(pass, info, n.List, fn)
		}
		return true
	})

	// %v/%s/%q wrapping of a durable-originated error.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			errorfFlattened(info, call, func(arg ast.Expr, verb byte) {
				if obj := rootObject(info, arg); obj != nil && durableErrVars[obj] {
					pass.Reportf(arg.Pos(), "durable-write error wrapped with %%%c; use %%w so retry.Transient classification survives errors.Is", verb)
				}
			})
		}
		return true
	})
}

// checkDurableAssign flags "_ = durableCall()" style discards and records
// error variables fed from durable calls.
func checkDurableAssign(pass *Pass, info *types.Info, n *ast.AssignStmt, durableErrVars map[types.Object]bool) {
	// Single call on the RHS (covers both "err := f()" and "a, err := f()").
	if len(n.Rhs) != 1 {
		return
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := isDurableCall(info, call)
	if !ok {
		return
	}
	// The error is the last result; find which LHS receives it.
	errLhs := n.Lhs[len(n.Lhs)-1]
	if id, ok := errLhs.(*ast.Ident); ok {
		if id.Name == "_" {
			pass.Reportf(n.Pos(), "error from durable write %s assigned to _; a failed commit goes unnoticed", name)
			return
		}
		if obj := info.Defs[id]; obj != nil {
			durableErrVars[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			durableErrVars[obj] = true
		}
	}
}

// checkShadowedErrs scans one statement list linearly: an error assigned
// from a durable call must be used (checked, returned, passed on) before
// the same variable is overwritten at this nesting level.  At the end of
// the function body an unread pending error is equally lost.
func checkShadowedErrs(pass *Pass, info *types.Info, stmts []ast.Stmt, fn *ast.FuncDecl) {
	type pending struct {
		obj  types.Object
		name string // durable callee
		stmt *ast.AssignStmt
	}
	var open []pending

	// use reports whether s reads obj.  The bare-identifier LHS of an
	// assignment is a write, not a read — without excluding it, the very
	// statement that overwrites a pending error would count as "checking"
	// it.  Non-identifier LHS (m[err] = x) still reads the variable.
	useExpr := func(e ast.Expr, obj types.Object) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return true
		})
		return found
	}
	use := func(s ast.Stmt, obj types.Object) bool {
		if asn, ok := s.(*ast.AssignStmt); ok {
			for _, rhs := range asn.Rhs {
				if useExpr(rhs, obj) {
					return true
				}
			}
			for _, lhs := range asn.Lhs {
				if _, bare := lhs.(*ast.Ident); !bare && useExpr(lhs, obj) {
					return true
				}
			}
			return false
		}
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return true
		})
		return found
	}

	for _, s := range stmts {
		// First: does this statement read any pending error?
		var kept []pending
		for _, p := range open {
			if use(s, p.obj) {
				continue // checked; resolved
			}
			kept = append(kept, p)
		}
		open = kept

		asn, ok := s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		// Overwrite of a still-pending error at this level?
		overwritten := func(p pending) bool {
			for _, lhs := range asn.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					obj := info.Uses[id]
					if obj == nil {
						obj = info.Defs[id]
					}
					if obj == p.obj {
						return true
					}
				}
			}
			return false
		}
		kept = kept[:0]
		for _, p := range open {
			if overwritten(p) {
				pass.Reportf(asn.Pos(), "error from durable write %s is overwritten before being checked; the failed commit is lost", p.name)
				continue
			}
			kept = append(kept, p)
		}
		open = append([]pending(nil), kept...)
		// New pending durable error?
		if len(asn.Rhs) == 1 {
			if call, ok := asn.Rhs[0].(*ast.CallExpr); ok {
				if name, ok := isDurableCall(info, call); ok {
					errLhs := asn.Lhs[len(asn.Lhs)-1]
					if id, ok := errLhs.(*ast.Ident); ok && id.Name != "_" {
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil {
							open = append(open, pending{obj: obj, name: name, stmt: asn})
						}
					}
				}
			}
		}
	}

	// End of the function body: a pending error nobody will ever read.
	if fn.Body != nil && len(fn.Body.List) > 0 && sameStmts(stmts, fn.Body.List) {
		for _, p := range open {
			pass.Reportf(p.stmt.Pos(), "error from durable write %s is assigned but never checked before the function returns", p.name)
		}
	}
}

// sameStmts reports whether the two slices are the same statement list.
func sameStmts(a, b []ast.Stmt) bool {
	return len(a) == len(b) && len(a) > 0 && a[0] == b[0]
}
