package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrClass guards internal/retry's transient-vs-permanent classification
// in the retry-aware layers: wrapping an error with fmt.Errorf("%v") severs
// the chain errors.Is/errors.As walk, and comparing interface errors with
// == misses wrapped sentinels.  Either defect silently turns a transient
// communication fault into a permanent one (or vice versa), defeating the
// backoff machinery PR 1 added.
var ErrClass = &Analyzer{
	Name: "errclass",
	Doc: "flag fmt.Errorf that formats an error without %w and ==/!= comparisons of " +
		"interface errors (use errors.Is) in retry-aware packages",
	InScope: errClassScope,
	Run:     runErrClass,
}

// errClassScope: the replication stack and anything that imports
// internal/retry directly.
func errClassScope(pkg *Package) bool {
	if segScope("retry", "sim", "simnet", "core", "recon", "repl", "physical")(pkg) {
		return true
	}
	for _, imp := range pkg.Types.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/retry") {
			return true
		}
	}
	return false
}

func runErrClass(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, x)
			case *ast.BinaryExpr:
				checkErrCompare(pass, info, x)
			}
			return true
		})
	}
}

// errorType is the built-in error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// isErrorInterface reports whether t is the error interface itself (not a
// concrete type that happens to implement it — comparing concrete errno
// values with == is fine).
func isErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	intf, ok := t.Underlying().(*types.Interface)
	return ok && types.Identical(intf, errorType)
}

// checkErrorfWrap flags fmt.Errorf calls whose format applies %v/%s/%q to
// an error-typed argument: the chain is flattened to text and retry can no
// longer classify the cause.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	errorfFlattened(info, call, func(arg ast.Expr, verb byte) {
		t := info.TypeOf(arg)
		if t == nil || !implementsError(t) {
			return
		}
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
			return
		}
		pass.Reportf(arg.Pos(), "error formatted with %%%c loses the error chain; use %%w so retry can classify the cause with errors.Is/As", verb)
	})
}

// errorfFlattened calls flat for each argument of a fmt.Errorf call whose
// verb (%v, %s or %q) flattens it to text.
func errorfFlattened(info *types.Info, call *ast.CallExpr, flat func(arg ast.Expr, verb byte)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	format, ok := stringConstant(info, call.Args[0])
	if !ok {
		return
	}
	for i, verb := range formatVerbs(format) {
		if 1+i >= len(call.Args) {
			break
		}
		if verb == 'v' || verb == 's' || verb == 'q' {
			flat(call.Args[1+i], verb)
		}
	}
}

// stringConstant extracts a compile-time string value.
func stringConstant(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// formatVerbs maps each consumed argument (in order) to its verb letter.
// A '*' width or precision consumes an argument and is recorded as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			if c := format[i]; (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				verbs = append(verbs, c)
			}
		}
	}
	return verbs
}

// checkErrCompare flags ==/!= where either side is the error interface and
// neither side is nil: wrapped sentinels make the comparison silently
// false; errors.Is unwraps.
func checkErrCompare(pass *Pass, info *types.Info, be *ast.BinaryExpr) {
	if be.Op.String() != "==" && be.Op.String() != "!=" {
		return
	}
	if isNilExpr(info, be.X) || isNilExpr(info, be.Y) {
		return
	}
	tx, ty := info.TypeOf(be.X), info.TypeOf(be.Y)
	if !isErrorInterface(tx) && !isErrorInterface(ty) {
		return
	}
	if !implementsError(tx) || !implementsError(ty) {
		return
	}
	pass.Reportf(be.Pos(), "comparing errors with %s misses wrapped sentinels and defeats retry classification; use errors.Is", be.Op)
}

// isNilExpr reports whether e is the untyped nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return true
	}
	return false
}
