// Package physical is a ficusvet test fixture for the heldlocks analyzer
// (the "physical" path segment puts it in scope): methods named *Locked
// require the receiver's mutex.  The first cases are position-sensitive —
// the lock is released before the call, taken on only one branch, or
// re-taken on a path where it is already held; the convention cases after
// them (no lock at all, a parameter, the wrong object's lock) are the ones
// the journal append path makes load-bearing.
package physical

import (
	"sort"
	"sync"
)

type vnode struct {
	mu    sync.Mutex
	names []string
}

func (v *vnode) lookupLocked(name string) bool {
	for _, n := range v.names {
		if n == name {
			return true
		}
	}
	return false
}

type table struct {
	mu sync.RWMutex
	n  int
}

func (t *table) sizeLocked() int { return t.n }

// --- known-good ----------------------------------------------------------

func (v *vnode) goodDefer(name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lookupLocked(name)
}

func (v *vnode) goodBothBranches(name string, fast bool) bool {
	if fast {
		v.mu.Lock()
	} else {
		v.mu.Lock()
	}
	ok := v.lookupLocked(name)
	v.mu.Unlock()
	return ok
}

func (v *vnode) goodLockAfterEarlyReturn(name string) bool {
	if name == "" {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lookupLocked(name)
}

func (v *vnode) goodComparator() {
	v.mu.Lock()
	defer v.mu.Unlock()
	sort.Slice(v.names, func(i, j int) bool {
		// The comparator runs on this goroutine with the lock still held.
		return v.lookupLocked(v.names[i]) || v.names[i] < v.names[j]
	})
}

func (t *table) goodReadCall() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeLocked()
}

func newVnode() *vnode {
	// Locally constructed, unpublished: no other goroutine can hold a
	// reference yet, so calling the *Locked method bare is fine.
	v := &vnode{}
	_ = v.lookupLocked("seed")
	return v
}

func (v *vnode) rehashLocked() {
	go func() {
		// The goroutine runs after the caller releases the lock; taking it
		// here is not a self-deadlock.
		v.mu.Lock()
		defer v.mu.Unlock()
		v.names = append(v.names[:0], v.names...)
	}()
}

func (v *vnode) refreshLocked() {
	// *Locked calling *Locked: the outermost caller owns the lock.
	_ = v.lookupLocked("seed")
}

func (v *vnode) goodLoop(name string) {
	for i := 0; i < 2; i++ {
		v.mu.Lock()
		_ = v.lookupLocked(name)
		v.mu.Unlock()
	}
}

func (v *vnode) suppressed(name string) bool {
	return v.lookupLocked(name) //ficusvet:ignore heldlocks
}

// --- known-bad -----------------------------------------------------------

func (v *vnode) badAfterUnlock(name string) bool {
	v.mu.Lock()
	populated := v.names != nil
	v.mu.Unlock()
	if populated {
		return v.lookupLocked(name) // want: lock already released here
	}
	return false
}

func (v *vnode) badOneBranch(name string, fast bool) bool {
	if fast {
		v.mu.Lock()
		defer v.mu.Unlock()
	}
	return v.lookupLocked(name) // want: held only on the fast path
}

func (v *vnode) badSelfDeadlock() {
	v.mu.Lock()
	v.mu.Lock() // want: already held on this path
	v.mu.Unlock()
	v.mu.Unlock()
}

func (t *table) badUpgrade() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.mu.Lock() // want: read-to-write upgrade deadlocks
	t.n++
	t.mu.Unlock()
}

func (v *vnode) badRelockLocked() {
	v.mu.Lock() // want: *Locked runs with the receiver's mutex held
	defer v.mu.Unlock()
	v.names = nil
}

func (v *vnode) badGoroutine(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	go func() {
		_ = v.lookupLocked(name) // want: goroutine runs without the lock
	}()
}

func (v *vnode) badNoLock(name string) bool {
	return v.lookupLocked(name) // want: receiver's lock never taken
}

func badParam(v *vnode, name string) bool {
	return v.lookupLocked(name) // want: parameter, not locally constructed
}

func (v *vnode) badOtherLock(other *vnode, name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return other.lookupLocked(name) // want: wrong object's lock
}
