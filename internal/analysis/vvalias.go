package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// VVAlias flags a vv.Vector that arrives through a function's parameters
// and is stored — into a struct field, a package-level variable, a map or
// slice element, or a composite literal — without .Clone().  vv.Vector is
// a map type: the store aliases the caller's map, and a later Bump through
// either name mutates both, silently corrupting the dominance relation
// that conflict detection (paper §2.6, §3.1) is built on.
var VVAlias = &Analyzer{
	Name: "vvalias",
	Doc: "flag vv.Vector parameters stored into fields, globals, containers, or " +
		"composite literals without Clone (map aliasing corrupts dominance comparisons)",
	Run: runVVAlias,
}

// vvPackageSuffix identifies the version-vector package by import-path
// suffix, so the check also applies to fixture modules.
const vvPackageSuffix = "internal/vv"

// isVVType reports whether t is the named type vv.Vector.
func isVVType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == "Vector" &&
		(obj.Pkg().Path() == vvPackageSuffix || strings.HasSuffix(obj.Pkg().Path(), "/"+vvPackageSuffix))
}

func runVVAlias(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncAliases(pass, fn)
		}
	}
}

// checkFuncAliases runs a simple forward taint pass over one function:
// parameters (and locals assigned from tainted vv.Vector expressions) are
// tainted; storing a tainted vv.Vector into anything longer-lived than a
// local variable is flagged.
func checkFuncAliases(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	tainted := make(map[types.Object]bool)
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	addParams(fn.Recv)
	addParams(fn.Type.Params)

	// taintedVV reports whether e is a vv.Vector reached from a tainted
	// object without an intervening call (Clone, Merge, ... launder).
	taintedVV := func(e ast.Expr) bool {
		if t := info.TypeOf(e); t == nil || !isVVType(t) {
			return false
		}
		obj := rootObject(info, e)
		return obj != nil && tainted[obj]
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if len(x.Lhs) != len(x.Rhs) {
					break // multi-value call form; results are fresh
				}
				lhs := x.Lhs[i]
				if !taintedVV(rhs) {
					// Propagate taint through plain local rebinding.
					if id, ok := lhs.(*ast.Ident); ok {
						if t := info.TypeOf(rhs); t != nil && isVVType(t) {
							if obj := rootObject(info, rhs); obj != nil && tainted[obj] {
								if def := info.Defs[id]; def != nil {
									tainted[def] = true
								}
							}
						}
					}
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					obj := info.Uses[l]
					if obj == nil {
						// := definition: the local inherits the taint.
						if def := info.Defs[l]; def != nil {
							tainted[def] = true
						}
						continue
					}
					if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Types.Scope() {
						pass.Reportf(rhs.Pos(), "vv.Vector parameter stored into package variable %s without Clone; aliased map mutation corrupts dominance comparisons", l.Name)
					} else {
						tainted[obj] = true // local rebinding keeps the taint
					}
				case *ast.SelectorExpr:
					if isFieldSelector(info, l) {
						pass.Reportf(rhs.Pos(), "vv.Vector parameter stored into field %s without Clone; aliased map mutation corrupts dominance comparisons", l.Sel.Name)
					}
				case *ast.IndexExpr:
					pass.Reportf(rhs.Pos(), "vv.Vector parameter stored into a container element without Clone; aliased map mutation corrupts dominance comparisons")
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return true
			}
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				// Map/slice literals holding an aliased vector escape too.
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
						return true
					}
				}
			}
			for _, elt := range x.Elts {
				val := elt
				field := ""
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						field = id.Name
					}
				}
				if taintedVV(val) {
					if field != "" {
						pass.Reportf(val.Pos(), "vv.Vector parameter stored into composite literal field %s without Clone; aliased map mutation corrupts dominance comparisons", field)
					} else {
						pass.Reportf(val.Pos(), "vv.Vector parameter stored into composite literal without Clone; aliased map mutation corrupts dominance comparisons")
					}
				}
			}
		}
		return true
	})
}

// isFieldSelector reports whether sel names a struct field.
func isFieldSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	if s, ok := info.Selections[sel]; ok {
		_, isVar := s.Obj().(*types.Var)
		return isVar && s.Kind() == types.FieldVal
	}
	// Qualified identifier pkg.Var: a package-level variable in another
	// package is just as long-lived.
	if obj, ok := info.Uses[sel.Sel].(*types.Var); ok && !obj.IsField() {
		return true
	}
	return false
}
