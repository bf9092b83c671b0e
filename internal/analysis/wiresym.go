package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireSym verifies the wire formats stay symmetric: every encode function
// must write exactly the field sequence — same fields, same order, same
// wire widths — that its decode counterpart reads, and every opcode
// constant must be dispatched somewhere.  Wire-v2-style drift (a field
// added to encode but not decode, a u32 read as u64, a new opcode the
// server ignores) otherwise only surfaces when a fuzz test happens to
// cover it; this turns it into a commit gate.
//
// Both sides are normalized to a primitive token stream (u8/u16/u32/u64,
// uvarint counts, raw byte runs, vv vectors) with loops kept as nested
// repetition groups and if-statements flattened (a conditional field is
// always guarded by a flag or count read on both sides).  The primitives
// are the one codec's — internal/wire's Append functions and its Decoder's
// methods, by exact name — plus encoding/binary, the builtin append and
// vv's AppendBinary/DecodeFrom; a call to a same-package function is
// inlined on either side, so composite helpers (encodeAux/decodeAux) need
// no table entry.  Pairing: method (t).encode ↔ function decodeT, function
// encodeX ↔ decodeX.
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc: "encode*/decode* pairs must read and write identical field sequences " +
		"(order and wire widths), and op tables must be dispatched exhaustively",
	InScope: segScope("repl", "core", "nfs"),
	Run:     runWireSym,
}

// wireTok is one normalized wire token: a primitive kind, or "rep" with a
// nested group for a loop body.
type wireTok struct {
	kind string
	sub  []wireTok
	pos  token.Pos
}

func (t wireTok) describe() string {
	if t.kind == "rep" {
		var parts []string
		for _, s := range t.sub {
			parts = append(parts, s.describe())
		}
		return "rep{" + strings.Join(parts, ",") + "}"
	}
	return t.kind
}

// wirePackageSuffix identifies the codec package by import-path suffix.
const wirePackageSuffix = "internal/wire"

// pathKind is a directory path on the wire: a count, then repeated fids.
const pathKind = "path"

// wireAppends maps the codec package's append functions to primitives.
var wireAppends = map[string][]string{
	"AppendU8":     {"u8"},
	"AppendU16":    {"u16"},
	"AppendU32":    {"u32"},
	"AppendU64":    {"u64"},
	"AppendBool":   {"u8"},
	"AppendCount":  {"count"},
	"AppendBytes":  {"count", "raw"},
	"AppendString": {"count", "raw"},
	"AppendFID":    {"u32", "u64"},
	"AppendVol":    {"u32", "u32"},
	"AppendPath":   {pathKind},
}

// wireReads maps (*wire.Decoder)'s reading methods to primitives; its
// other methods (Fail, Err, Len, Finish) touch no bytes.
var wireReads = map[string][]string{
	"U8":      {"u8"},
	"U16":     {"u16"},
	"U32":     {"u32"},
	"U64":     {"u64"},
	"Bool":    {"u8"},
	"Version": {"u8"},
	"Count":   {"count"},
	"Bytes":   {"count", "raw"},
	"Str":     {"count", "raw"},
	"FID":     {"u32", "u64"},
	"Vol":     {"u32", "u32"},
	"Path":    {pathKind},
	"VV":      {"vv"},
	"Take":    {"raw"},
}

// wireTokens looks fn up in table when it belongs to the codec package.
func wireTokens(fn *types.Func, table map[string][]string, pos token.Pos) ([]wireTok, bool) {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), wirePackageSuffix) {
		return nil, false
	}
	kinds, ok := table[fn.Name()]
	if !ok {
		return nil, false
	}
	var toks []wireTok
	for _, k := range kinds {
		if k == pathKind {
			toks = append(toks, wireTok{kind: "count", pos: pos},
				wireTok{kind: "rep", pos: pos, sub: []wireTok{{kind: "u32", pos: pos}, {kind: "u64", pos: pos}}})
			continue
		}
		toks = append(toks, wireTok{kind: k, pos: pos})
	}
	return toks, true
}

func runWireSym(pass *Pass) {
	type codecFn struct {
		fn  *ast.FuncDecl
		key string
	}
	var encoders, decoders []codecFn

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			switch {
			case name == "encode" && fn.Recv != nil:
				if t := recvTypeName(fn); t != "" {
					encoders = append(encoders, codecFn{fn, strings.ToLower(t)})
				}
			case strings.HasPrefix(name, "encode") && len(name) > len("encode") && fn.Recv == nil:
				encoders = append(encoders, codecFn{fn, strings.ToLower(name[len("encode"):])})
			case strings.HasPrefix(name, "decode") && len(name) > len("decode") && fn.Recv == nil:
				decoders = append(decoders, codecFn{fn, strings.ToLower(name[len("decode"):])})
			}
		}
	}

	decByKey := make(map[string]codecFn, len(decoders))
	for _, d := range decoders {
		decByKey[d.key] = d
	}
	encByKey := make(map[string]codecFn, len(encoders))
	for _, e := range encoders {
		encByKey[e.key] = e
	}

	for _, e := range encoders {
		d, ok := decByKey[e.key]
		if !ok {
			pass.Reportf(e.fn.Pos(), "encoder %s has no decode%s counterpart; one-way codecs drift silently",
				e.fn.Name.Name, e.key)
			continue
		}
		compareCodec(pass, e.fn, d.fn)
	}
	for _, d := range decoders {
		if _, ok := encByKey[d.key]; !ok {
			pass.Reportf(d.fn.Pos(), "decoder %s has no encode counterpart; one-way codecs drift silently",
				d.fn.Name.Name)
		}
	}

	checkOpTables(pass)
}

func recvTypeName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func compareCodec(pass *Pass, enc, dec *ast.FuncDecl) {
	encToks := codecTokens(pass, enc.Body.List, (&tokenizer{pass: pass}).encodeCall, nil)
	decToks := codecTokens(pass, dec.Body.List, (&tokenizer{pass: pass}).decodeCall, nil)
	compareTokens(pass, enc.Name.Name, dec.Name.Name, encToks, decToks, "")
}

// compareTokens reports the first divergence between the two streams at
// each nesting level.
func compareTokens(pass *Pass, encName, decName string, enc, dec []wireTok, path string) {
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		e, d := enc[i], dec[i]
		if e.kind != d.kind {
			pass.Reportf(e.pos, "wire asymmetry between %s and %s: field %s%d is %s on the encode side but %s on the decode side",
				encName, decName, path, i+1, e.describe(), d.describe())
			return
		}
		if e.kind == "rep" {
			compareTokens(pass, encName, decName, e.sub, d.sub, path+itoa(i+1)+".")
		}
	}
	switch {
	case len(enc) > len(dec):
		t := enc[len(dec)]
		pass.Reportf(t.pos, "wire asymmetry: %s writes %d field(s) (%s…) beyond what %s reads",
			encName, len(enc)-len(dec), t.describe(), decName)
	case len(dec) > len(enc):
		t := dec[len(enc)]
		pass.Reportf(t.pos, "wire asymmetry: %s reads %d field(s) (%s…) beyond what %s writes",
			decName, len(dec)-len(enc), t.describe(), encName)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// tokenizer resolves one call expression to its wire tokens; inlining of
// same-package helpers carries a cycle guard.
type tokenizer struct {
	pass     *Pass
	inlining map[*types.Func]bool
}

// codecTokens walks a statement list, flattening if-statements (the guard
// condition's own reads come first) and folding loops into rep groups.
func codecTokens(pass *Pass, stmts []ast.Stmt, resolve func(*ast.CallExpr) ([]wireTok, bool), out []wireTok) []wireTok {
	for _, s := range stmts {
		out = codecStmtTokens(pass, s, resolve, out)
	}
	return out
}

func codecStmtTokens(pass *Pass, s ast.Stmt, resolve func(*ast.CallExpr) ([]wireTok, bool), out []wireTok) []wireTok {
	switch s := s.(type) {
	case nil:
		return out
	case *ast.RangeStmt:
		out = codecExprTokens(pass, s.X, resolve, out)
		body := codecTokens(pass, s.Body.List, resolve, nil)
		if len(body) > 0 {
			out = append(out, wireTok{kind: "rep", sub: body, pos: s.Pos()})
		}
		return out
	case *ast.ForStmt:
		out = codecStmtTokens(pass, s.Init, resolve, out)
		out = codecExprTokens(pass, s.Cond, resolve, out)
		body := codecTokens(pass, s.Body.List, resolve, nil)
		body = codecStmtTokens(pass, s.Post, resolve, body)
		if len(body) > 0 {
			out = append(out, wireTok{kind: "rep", sub: body, pos: s.Pos()})
		}
		return out
	case *ast.IfStmt:
		out = codecStmtTokens(pass, s.Init, resolve, out)
		out = codecExprTokens(pass, s.Cond, resolve, out)
		out = codecTokens(pass, s.Body.List, resolve, out)
		return codecStmtTokens(pass, s.Else, resolve, out)
	case *ast.BlockStmt:
		return codecTokens(pass, s.List, resolve, out)
	case *ast.SwitchStmt:
		out = codecStmtTokens(pass, s.Init, resolve, out)
		out = codecExprTokens(pass, s.Tag, resolve, out)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = codecTokens(pass, cc.Body, resolve, out)
			}
		}
		return out
	default:
		// Assignments, returns, declarations: harvest calls in source order.
		var exprs []ast.Expr
		switch s := s.(type) {
		case *ast.AssignStmt:
			exprs = append(exprs, s.Rhs...)
		case *ast.ReturnStmt:
			exprs = append(exprs, s.Results...)
		case *ast.ExprStmt:
			exprs = append(exprs, s.X)
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						exprs = append(exprs, vs.Values...)
					}
				}
			}
		}
		for _, x := range exprs {
			out = codecExprTokens(pass, x, resolve, out)
		}
		return out
	}
}

func codecExprTokens(pass *Pass, x ast.Expr, resolve func(*ast.CallExpr) ([]wireTok, bool), out []wireTok) []wireTok {
	if x == nil {
		return out
	}
	ast.Inspect(x, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if toks, ok := resolve(call); ok {
			out = append(out, toks...)
			return false
		}
		return true // conversion or helper without wire meaning: descend
	})
	return out
}

// encodeCall resolves an encode-side call.
func (t *tokenizer) encodeCall(call *ast.CallExpr) ([]wireTok, bool) {
	info := t.pass.Pkg.Info
	pos := call.Pos()
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return nil, false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
			switch fn.Name() {
			case "AppendUint16":
				return []wireTok{{kind: "u16", pos: pos}}, true
			case "AppendUint32":
				return []wireTok{{kind: "u32", pos: pos}}, true
			case "AppendUint64":
				return []wireTok{{kind: "u64", pos: pos}}, true
			case "AppendUvarint", "AppendVarint":
				return []wireTok{{kind: "count", pos: pos}}, true
			}
			return nil, false
		}
		if fn.Name() == "AppendBinary" && isVVType(recvBase(fn)) {
			return []wireTok{{kind: "vv", pos: pos}}, true
		}
		return wireTokens(fn, wireAppends, pos)
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			if fun.Name != "append" || len(call.Args) < 2 {
				return nil, false
			}
			if call.Ellipsis != token.NoPos {
				return []wireTok{{kind: "raw", pos: pos}}, true
			}
			var toks []wireTok
			for range call.Args[1:] {
				toks = append(toks, wireTok{kind: "u8", pos: pos})
			}
			return toks, true
		}
		return t.inline(fun, pos, t.encodeCall)
	}
	return nil, false
}

// decodeCall resolves a decode-side call.
func (t *tokenizer) decodeCall(call *ast.CallExpr) ([]wireTok, bool) {
	info := t.pass.Pkg.Info
	pos := call.Pos()
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return nil, false
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
			switch fn.Name() {
			case "Uint16":
				return []wireTok{{kind: "u16", pos: pos}}, true
			case "Uint32":
				return []wireTok{{kind: "u32", pos: pos}}, true
			case "Uint64":
				return []wireTok{{kind: "u64", pos: pos}}, true
			case "Uvarint", "Varint":
				return []wireTok{{kind: "count", pos: pos}}, true
			}
			return nil, false
		}
		if fn.Name() == "DecodeFrom" && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), vvPackageSuffix) {
			return []wireTok{{kind: "vv", pos: pos}}, true
		}
		if named, ok := recvBase(fn).(*types.Named); ok && named.Obj().Name() == "Decoder" {
			return wireTokens(fn, wireReads, pos)
		}
		return nil, false
	case *ast.Ident:
		return t.inline(fun, pos, t.decodeCall)
	}
	return nil, false
}

// inline expands a call to a same-package function into the tokens of its
// body, once (a cycle yields a marker token that matches nothing).
func (t *tokenizer) inline(fun *ast.Ident, pos token.Pos, resolve func(*ast.CallExpr) ([]wireTok, bool)) ([]wireTok, bool) {
	fn, _ := t.pass.Pkg.Info.Uses[fun].(*types.Func)
	if fn == nil || fn.Pkg() != t.pass.Pkg.Types {
		return nil, false
	}
	body := t.findBody(fn)
	if body == nil {
		return nil, false
	}
	if t.inlining == nil {
		t.inlining = make(map[*types.Func]bool)
	}
	if t.inlining[fn] {
		return []wireTok{{kind: "recursive:" + fn.Name(), pos: pos}}, true
	}
	t.inlining[fn] = true
	toks := codecTokens(t.pass, body.List, resolve, nil)
	delete(t.inlining, fn)
	for i := range toks {
		toks[i].pos = pos
	}
	return toks, true
}

// findBody locates the declaration body of a same-package function.
func (t *tokenizer) findBody(fn *types.Func) *ast.BlockStmt {
	for _, file := range t.pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if t.pass.Pkg.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// recvBase returns the receiver's base type of a method, or nil.
func recvBase(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// checkOpTables enforces opcode exhaustiveness: for every named integer
// type with two or more package-level constants that is dispatched by at
// least one switch, every constant must appear in some case clause or in
// an ==/!= comparison — an opcode nobody dispatches is dead protocol
// surface or, worse, a request the server silently mishandles.
func checkOpTables(pass *Pass) {
	info := pass.Pkg.Info
	scope := pass.Pkg.Types.Scope()

	consts := make(map[*types.Named][]*types.Const)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != pass.Pkg.Types {
			continue
		}
		if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
			continue
		}
		consts[named] = append(consts[named], c)
	}

	switched := make(map[*types.Named]bool)
	mentioned := make(map[*types.Const]bool)
	noteExpr := func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok {
			if c, ok := info.Uses[id].(*types.Const); ok {
				mentioned[c] = true
			}
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if c, ok := info.Uses[sel.Sel].(*types.Const); ok {
				mentioned[c] = true
			}
		}
	}
	namedOf := func(x ast.Expr) *types.Named {
		t := info.TypeOf(x)
		named, _ := t.(*types.Named)
		return named
	}

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				if named := namedOf(n.Tag); named != nil && consts[named] != nil {
					switched[named] = true
				}
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						for _, x := range cc.List {
							noteExpr(x)
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					noteExpr(n.X)
					noteExpr(n.Y)
				}
			}
			return true
		})
	}

	var namedList []*types.Named
	for named, cs := range consts {
		if len(cs) >= 2 && switched[named] {
			namedList = append(namedList, named)
		}
	}
	sort.Slice(namedList, func(i, j int) bool {
		return namedList[i].Obj().Name() < namedList[j].Obj().Name()
	})
	for _, named := range namedList {
		cs := consts[named]
		sort.Slice(cs, func(i, j int) bool {
			vi, _ := constant.Int64Val(cs[i].Val())
			vj, _ := constant.Int64Val(cs[j].Val())
			return vi < vj
		})
		for _, c := range cs {
			if !mentioned[c] {
				pass.Reportf(c.Pos(), "op table %s: constant %s is never dispatched (no case clause or comparison mentions it)",
					named.Obj().Name(), c.Name())
			}
		}
	}
}
