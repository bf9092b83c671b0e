package logical

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// lvnode is the logical layer's vnode: one logical file identified by its
// rendered name path from the volume root, which is also its key in the
// resolution cache and the lock table.  Every operation selects a
// physical replica under the active policy and forwards through the vnode
// stack; retriable failures (replica unreachable, file not stored there,
// stale handle) fall over to the next replica — one-copy availability.
// Selection is per open (DESIGN.md §3.1): from Open to the last Close the
// operations go to the copy chosen at Open, with no resolve and no poll.  The
// layer keeps one per path and hands it to every walk that finds no session
// holding it.
type lvnode struct {
	l    *Layer
	path string // the names from the root joined by "/"; "" is the root

	sess  sync.Mutex                // held across an Open or Close: the next Open finds this one's pin
	opens atomic.Int32              // written under sess: Opens not yet matched by a Close
	pin   atomic.Pointer[candidate] // the copy chosen at Open; nil: select per operation
	last  *candidate                // under sess: the latest pin, published again by an Open that chooses its copy
}

// candidate is one resolved replica copy of this logical file.  One that is
// published as a pin is never written again.
type candidate struct {
	rep Replica
	vn  vnode.Vnode
}

// resolveOn resolves this vnode's path on one replica from the layer's
// resolution cache (the vnodes the 1990 kernel would simply have kept
// referenced).
func (v *lvnode) resolveOn(r Replica) (vnode.Vnode, error) {
	vn, _, err := v.l.resolve(v.path, r)
	return vn, err
}

// splitPath splits a path other than the root's into its parent's path and
// its last name.  Names hold no "/", so a parent's path — its cache key — is a
// prefix of its child's, and resolving one makes no key.
func splitPath(path string) (parent, name string) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// resolve resolves path on replica r and caches the answer.  A miss looks
// the last name up in the parent's resolution, itself cached or resolved the
// same way, not from the replica root; cached reports that the answer rests on
// a cached resolution.  Such a resolution may be stale, so a lookup that fails
// below one is checked against a walk from the root to the parent: unless the
// walk reaches the same directory, the name is looked up again in the one it
// reaches.  Every failure answers what a walk from the root answers.
func (l *Layer) resolve(path string, r Replica) (vn vnode.Vnode, cached bool, err error) {
	if vn, ok := l.cacheGet(path, r.ID); ok {
		return vn, true, nil
	}
	if path == "" {
		vn, err = r.FS.Root()
	} else {
		parent, name := splitPath(path)
		var dir vnode.Vnode
		if dir, cached, err = l.resolve(parent, r); err != nil {
			return nil, cached, err // checked where it failed
		}
		if vn, err = dir.Lookup(name); err != nil && cached {
			fresh, werr := l.walk(parent, r)
			switch {
			case werr != nil:
				err = werr
			case fresh.Handle() != dir.Handle():
				vn, err = fresh.Lookup(name)
			} // the same directory: its answer stands
		}
	}
	if err != nil {
		return nil, cached, err
	}
	l.cachePut(path, r.ID, vn)
	return vn, cached, nil
}

// walk resolves path on replica r from its root, caching each prefix it
// resolves.  Where it fails, that prefix's entry and the longer ones on path,
// which rested on it, are dropped.
func (l *Layer) walk(path string, r Replica) (vnode.Vnode, error) {
	vn, err := r.FS.Root()
	end := 0 // vn and err answer the prefix path[:end]
	for err == nil {
		l.cachePut(path[:end], r.ID, vn)
		if end == len(path) {
			return vn, nil
		}
		var name string
		name, end = nextName(path, end)
		vn, err = vn.Lookup(name)
	}
	for {
		l.cacheDrop(path[:end], r.ID)
		if end == len(path) {
			return nil, err
		}
		_, end = nextName(path, end)
	}
}

// nextName returns the name that follows the prefix path[:end] of path, and
// the end of the prefix that ends with it.
func nextName(path string, end int) (string, int) {
	if end > 0 {
		end++ // past the "/"
	}
	n := strings.IndexByte(path[end:], '/')
	if n < 0 {
		n = len(path) - end
	}
	return path[end : end+n], end + n
}

// copies yields the copy of the file at path on each replica that resolves it,
// in configuration order, touching replica i+1 only if yield wants more.  If it
// yields nothing it returns why: a definite answer (ENOENT) outranks EUNAVAIL.
func (l *Layer) copies(path string, yield func(candidate) bool) error {
	bestErr := error(vnode.EUNAVAIL)
	for _, r := range l.replicas {
		vn, _, err := l.resolve(path, r)
		if err != nil {
			if vnode.AsErrno(err) != vnode.EUNAVAIL && vnode.AsErrno(bestErr) == vnode.EUNAVAIL {
				bestErr = err
			}
			continue
		}
		if bestErr = nil; !yield(candidate{rep: r, vn: vn}) {
			break
		}
	}
	return bestErr
}

// rankedCopies is how many copies candidates ranks without allocating.
const rankedCopies = 8

// candidates yields the copies in the selection policy's order, to a caller
// about to use that order (Open, or an operation on a vnode that is not open):
// MostRecent polls each copy's update count (exposed as Mtime, the version
// vector total) and puts the newest first — "select the most recent copy
// available" (§2.5); FirstAvailable is copies itself, lazy.  Errors as copies.
// Only copies of one file are ranked: replicas that have not all seen a rename
// bind the name to different files, so MostRecent keeps the copies whose
// FileID is the first answering copy's — the file FirstAvailable would use —
// in configuration order, before it puts the newest first.
func (l *Layer) candidates(path string, yield func(candidate) bool) error {
	if l.policy != MostRecent {
		return l.copies(path, yield)
	}
	var buf [rankedCopies]candidate // out's room: only more copies than this spill to the heap
	out := buf[:0]
	err := l.copies(path, func(c candidate) bool { out = append(out, c); return true })
	if len(out) > 1 {
		kept, best := out[:0], 0
		var file string
		var bestM uint64
		for _, c := range out {
			a, err := c.vn.Getattr()
			switch {
			case err != nil || (len(kept) > 0 && a.FileID != file):
				continue
			case len(kept) == 0:
				file, bestM = a.FileID, a.Mtime
			case a.Mtime > bestM:
				best, bestM = len(kept), a.Mtime
			}
			kept = append(kept, c)
		}
		if len(kept) > 0 { // else no copy answered: all of them, as they came
			out = kept
		}
		out[0], out[best] = out[best], out[0]
	}
	for i := 0; i < len(out) && yield(out[i]); i++ {
	}
	return err
}

// attempt runs fn on one copy and announces the update it names, if any;
// retry says the failure is one another copy might not share.
func (v *lvnode) attempt(c candidate, fn func(candidate) (string, error)) (retry bool, err error) {
	h, err := fn(c)
	if err == nil && h != "" {
		v.l.sendNotify(h, c.rep.ID)
	}
	return err != nil && retriable(err), err
}

// try is attempt, made once more on a fresh resolution if the cached vnode may be stale.
func (v *lvnode) try(c candidate, fn func(candidate) (string, error)) (retry bool, err error) {
	if retry, err = v.attempt(c, fn); !retry {
		return false, err
	}
	v.l.cacheDrop(v.path, c.rep.ID)
	vn, rerr := v.resolveOn(c.rep)
	if rerr != nil {
		return true, err
	}
	return v.attempt(candidate{rep: c.rep, vn: vn}, fn)
}

// writeOp runs fn on the pinned copy if there is one, else — or once that copy
// fails retriably, which ends the pin — on the candidates until one succeeds,
// then notifies the other replicas that the chosen copy advanced (§3.2:
// updates are applied to a single replica and announced).
func (v *lvnode) writeOp(fn func(c candidate) (notifyHandle string, err error)) error {
	v.l.tick()
	if pin := v.pin.Load(); pin != nil {
		if retry, err := v.attempt(*pin, fn); !retry {
			return err
		}
		v.pin.CompareAndSwap(pin, nil)
	}
	var last error
	err := v.l.candidates(v.path, func(c candidate) (retry bool) {
		retry, last = v.try(c, fn)
		return retry
	})
	if err != nil {
		return err
	}
	return last
}

// readOp is writeOp with nothing to announce.
func (v *lvnode) readOp(fn func(c candidate) error) error {
	return v.writeOp(func(c candidate) (string, error) { return "", fn(c) })
}

// Handle identifies the logical file by volume and path.
func (v *lvnode) Handle() string {
	return "ficus:" + v.l.vol.String() + ":/" + v.path
}

func checkLogicalName(name string) error {
	if len(name) > MaxName {
		return vnode.ENAMETOOLONG
	}
	return nil
}

// Lookup asks, it does not vote: some reachable replica holds the name.  No
// replica holds the empty name or one with a "/" in it.
func (v *lvnode) Lookup(name string) (vnode.Vnode, error) {
	if err := checkLogicalName(name); err != nil {
		return nil, err
	}
	if name == "" || strings.IndexByte(name, '/') >= 0 {
		return nil, vnode.ENOENT
	}
	path := v.l.childPath(v.path, name)
	// Graft interception (§4.4): if the child is a graft point and a hook
	// is installed, return the grafted volume's root instead.
	// Only Getattr tells a graft point, so with a hook the walk asks on until a
	// copy answers, unless the resolution cache holds that copy as no graft
	// point; only at a graft point is the policy run, to hand the hook the
	// table of the first copy in the policy's order that answers.  A graft
	// point is asked every time: a copy that cannot answer must not be handed
	// to the hook.
	var held candidate
	var a vnode.Attr
	ask := func(c candidate) bool {
		held = c
		if v.l.cachePlain(path, c.rep.ID, c.vn) {
			a = vnode.Attr{}
			return false
		}
		var aerr error
		if a, aerr = c.vn.Getattr(); aerr == nil && a.GraftVol == "" {
			v.l.cacheMarkPlain(path, c.rep.ID, c.vn)
		}
		return aerr != nil
	}
	if v.l.graft == nil {
		ask = func(candidate) bool { return false }
	}
	if err := v.l.copies(path, ask); err != nil {
		return nil, err
	}
	if a.GraftVol == "" {
		return v.l.vnodeFor(path), nil
	}
	if target, perr := ids.ParseVolumeHandle(a.GraftVol); perr == nil {
		_ = v.l.candidates(path, ask)
		return v.l.graft(target, held.vn)
	}
	return v.l.vnodeFor(path), nil
}

// makeChild is Create and Mkdir: op makes the child in one copy of this directory,
// and the vnode that replica returned is kept as the child's resolution there.
// The directory is announced only if op changed it.
func (v *lvnode) makeChild(name string, op func(dir vnode.Vnode) (child vnode.Vnode, changed bool, err error)) (vnode.Vnode, error) {
	if err := checkLogicalName(name); err != nil {
		return nil, err
	}
	path := v.l.childPath(v.path, name)
	defer v.l.lockFile(v.path).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		vn, changed, err := op(c.vn)
		if err != nil {
			return "", err
		}
		v.l.cachePut(path, c.rep.ID, vn)
		if !changed {
			return "", nil
		}
		return c.vn.Handle(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.l.vnodeFor(path), nil
}

// Create without excl reuses an existing regular file, as the layers below do,
// but asks for it on the copy that refused the exclusive create: the directory
// did not change, so nothing is announced.
func (v *lvnode) Create(name string, excl bool) (vnode.Vnode, error) {
	return v.makeChild(name, func(dir vnode.Vnode) (vnode.Vnode, bool, error) {
		vn, err := dir.Create(name, true)
		if excl || vnode.AsErrno(err) != vnode.EEXIST {
			return vn, true, err
		}
		if vn, err = dir.Lookup(name); err != nil {
			return nil, false, err
		}
		a, err := vn.Getattr()
		if err == nil && a.Type != vnode.VReg {
			err = vnode.EEXIST
		}
		return vn, false, err
	})
}

func (v *lvnode) Mkdir(name string) (vnode.Vnode, error) {
	return v.makeChild(name, func(dir vnode.Vnode) (vnode.Vnode, bool, error) {
		vn, err := dir.Mkdir(name)
		return vn, true, err
	})
}

func (v *lvnode) Symlink(name, target string) error {
	if err := checkLogicalName(name); err != nil {
		return err
	}
	defer v.l.lockFile(v.path).unlock()
	return v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Symlink(name, target); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
}

func (v *lvnode) Readlink() (string, error) {
	var out string
	err := v.readOp(func(c candidate) error {
		s, err := c.vn.Readlink()
		if err != nil {
			return err
		}
		out = s
		return nil
	})
	return out, err
}

// Open ships the open through Lookup on the parent directory so it reaches
// the physical layer even across NFS (§2.3).  The volume root needs no
// bookkeeping.
func (v *lvnode) Open(flags vnode.OpenFlags) error {
	return v.shipOpenClose(true, flags)
}

// Close likewise.
func (v *lvnode) Close(flags vnode.OpenFlags) error {
	return v.shipOpenClose(false, flags)
}

// shipOpenClose is where the replica is chosen (§2.5): an open runs the
// policy once, goes to the chosen copy's own parent directory and pins the
// vnode the open returned there — the file the replica counted the open
// against, whatever this layer's resolution of the name said; the last
// matching close follows it there and ends the pin.  An open that chooses the
// copy the previous session chose publishes that session's pin again.
func (v *lvnode) shipOpenClose(open bool, flags vnode.OpenFlags) error {
	if v.path == "" {
		return nil
	}
	parent, name := splitPath(v.path)
	enc := v.l.encodeOpen(open, flags, name)
	v.sess.Lock()
	defer v.sess.Unlock()
	var chose candidate
	err := v.readOp(func(c candidate) error {
		dir, _, err := v.l.resolve(parent, c.rep)
		var opened vnode.Vnode
		if err == nil {
			opened, err = dir.Lookup(enc)
		}
		if err != nil && retriable(err) {
			v.l.cacheDrop(parent, c.rep.ID) // the stale vnode may be the directory's
		}
		chose = candidate{rep: c.rep, vn: opened}
		return err
	})
	if !open {
		if n := v.opens.Load(); n > 1 {
			v.opens.Store(n - 1)
		} else {
			v.opens.Store(0)
			v.pin.Store(nil)
		}
	} else if err == nil {
		v.opens.Add(1)
		if v.pin.Load() == nil {
			if v.last == nil || *v.last != chose { // a pin on the heap per copy chosen, not per session
				pinned := chose
				v.last = &pinned
			}
			v.pin.CompareAndSwap(nil, v.last)
		}
	}
	return err
}

func (v *lvnode) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var eof bool
	err := v.readOp(func(c candidate) error {
		m, err := c.vn.ReadAt(p, off)
		if err == io.EOF {
			n, eof = m, true
			return nil
		}
		if err != nil {
			return err
		}
		n, eof = m, false
		return nil
	})
	if err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

func (v *lvnode) WriteAt(p []byte, off int64) (int, error) {
	defer v.l.lockFile(v.path).unlock()
	var n int
	err := v.writeOp(func(c candidate) (string, error) {
		m, err := c.vn.WriteAt(p, off)
		if err != nil {
			return "", err
		}
		n = m
		return c.vn.Handle(), nil
	})
	return n, err
}

func (v *lvnode) Truncate(size uint64) error {
	defer v.l.lockFile(v.path).unlock()
	return v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Truncate(size); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
}

func (v *lvnode) Fsync() error {
	return v.readOp(func(c candidate) error { return c.vn.Fsync() })
}

func (v *lvnode) Getattr() (vnode.Attr, error) {
	var out vnode.Attr
	err := v.readOp(func(c candidate) error {
		a, err := c.vn.Getattr()
		if err != nil {
			return err
		}
		out = a
		return nil
	})
	return out, err
}

func (v *lvnode) Setattr(sa vnode.SetAttr) error {
	defer v.l.lockFile(v.path).unlock()
	return v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Setattr(sa); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
}

func (v *lvnode) Access(mode uint16) error {
	return v.readOp(func(c candidate) error { return c.vn.Access(mode) })
}

func (v *lvnode) Remove(name string) error {
	if err := checkLogicalName(name); err != nil {
		return err
	}
	defer v.l.lockFile(v.path).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Remove(name); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
	if err == nil {
		v.l.cacheDropSubtree(v.l.childPath(v.path, name))
	}
	return err
}

func (v *lvnode) Rmdir(name string) error {
	if err := checkLogicalName(name); err != nil {
		return err
	}
	defer v.l.lockFile(v.path).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Rmdir(name); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
	if err == nil {
		v.l.cacheDropSubtree(v.l.childPath(v.path, name))
	}
	return err
}

func (v *lvnode) Link(name string, target vnode.Vnode) error {
	if err := checkLogicalName(name); err != nil {
		return err
	}
	t, ok := target.(*lvnode)
	if !ok || t.l != v.l {
		return vnode.EXDEV
	}
	defer v.l.lockFile(v.path).unlock()
	return v.writeOp(func(c candidate) (string, error) {
		tv, err := t.resolveOn(c.rep)
		if err != nil {
			return "", err
		}
		if err := c.vn.Link(name, tv); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
}

func (v *lvnode) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	if err := checkLogicalName(oldName); err != nil {
		return err
	}
	if err := checkLogicalName(newName); err != nil {
		return err
	}
	d, ok := dstDir.(*lvnode)
	if !ok || d.l != v.l {
		return vnode.EXDEV
	}
	defer v.l.lockFile(v.path).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		// Both directories must be reached on the same replica: rename is
		// a single-replica update like any other.
		dv, err := d.resolveOn(c.rep)
		if err != nil {
			return "", err
		}
		if err := c.vn.Rename(oldName, dv, newName); err != nil {
			return "", err
		}
		// Announce the destination directory too: a cross-directory rename
		// updates both.
		v.l.sendNotify(dv.Handle(), c.rep.ID)
		return c.vn.Handle(), nil
	})
	if err == nil {
		v.l.cacheDropSubtree(v.l.childPath(v.path, oldName))
		v.l.cacheDropSubtree(v.l.childPath(d.path, newName))
	}
	return err
}

func (v *lvnode) Readdir() ([]vnode.Dirent, error) {
	var out []vnode.Dirent
	err := v.readOp(func(c candidate) error {
		ents, err := c.vn.Readdir()
		if err != nil {
			return err
		}
		out = ents
		return nil
	})
	return out, err
}
