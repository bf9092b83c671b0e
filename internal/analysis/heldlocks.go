package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HeldLocks enforces the repo's lock-suffix convention — a method named
// *Locked requires its receiver's mutex — in every package that takes a
// lock.  The directory journal makes the convention load-bearing: a record
// appended racing a compaction of the same contents file would interleave
// records and corrupt the directory.  Using the lockflow engine it tracks
// exactly which mutexes are held at each statement and enforces the
// convention positionally:
//
//   - a call to x.somethingLocked() must happen while a mutex rooted at x
//     is held (or from inside a *Locked function with the same receiver,
//     or on a value constructed locally, which cannot be shared yet);
//   - Lock()/RLock() on a mutex already held on the same path is a
//     self-deadlock, as is re-locking the receiver's own mutex from
//     inside a *Locked function.
//
// Being flow-sensitive, it notices when the lock was released before the
// call, or taken only on some branches.
var HeldLocks = &Analyzer{
	Name: "heldlocks",
	Doc: "flow-sensitive lock tracking: *Locked callees reached only with the " +
		"receiver's mutex held, and no Lock() on a mutex already held (self-deadlock)",
	InScope: lockScope,
	Run:     runHeldLocks,
}

// lockScope is every package that takes a mutex: the replication stack and
// the storage and transport layers under it.
var lockScope = segScope("core", "physical", "recon", "repl", "disk", "simnet",
	"logical", "nfs", "lru", "ufs")

// assumedPath marks the synthetic hold a *Locked function's receiver gets
// on entry; it matches any lock rooted at the receiver.
const assumedPath = "\x00assumed"

func runHeldLocks(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkHeldLocks(pass, fn)
		}
	}
}

func checkHeldLocks(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	entry := heldSet{}
	var recvObj types.Object
	inLocked := strings.HasSuffix(fn.Name.Name, "Locked")
	if fn.Recv != nil && len(fn.Recv.List) > 0 && len(fn.Recv.List[0].Names) > 0 {
		recvObj = info.Defs[fn.Recv.List[0].Names[0]]
	}
	if inLocked && recvObj != nil {
		// A *Locked function runs with its receiver's mutex held by
		// contract; which field is the mutex is the caller's business.
		entry[lockKey{root: recvObj, path: assumedPath}] = modeAssumed
	}

	flow := &lockFlow{
		info: info,
		onLock: func(call *ast.CallExpr, key lockKey, read bool, held heldSet) {
			if mode, dup := held[key]; dup && !(read && mode == modeRead) {
				pass.Reportf(call.Pos(), "self-deadlock: %s is already held on this path", key.path)
				return
			}
			_, assumed := held[lockKey{root: recvObj, path: assumedPath}]
			if assumed && key.root == recvObj {
				pass.Reportf(call.Pos(), "self-deadlock: %s locks the receiver's mutex inside %s, which runs with it held",
					key.path, fn.Name.Name)
			}
		},
		onCall: func(call *ast.CallExpr, held heldSet) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
				return
			}
			if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
				return
			}
			root := rootObject(info, sel.X)
			if root == nil {
				return
			}
			// A receiver constructed inside this function cannot be
			// reached by another goroutine yet.
			if fn.Body != nil && root.Pos() >= fn.Body.Pos() && root.Pos() <= fn.Body.End() {
				return
			}
			for key := range held {
				if key.root == root {
					return
				}
			}
			pass.Reportf(call.Pos(), "%s.%s called without %s's lock held on this path",
				exprPath(sel.X), sel.Sel.Name, exprPath(sel.X))
		},
	}
	flow.walkFunc(fn.Body, entry)
}
