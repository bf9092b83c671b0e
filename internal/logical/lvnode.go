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
// rendered name path from the volume root.  Every operation selects a
// physical replica under the active policy and forwards through the vnode
// stack; retriable failures (replica unreachable, file not stored there,
// stale handle) fall over to the next replica — one-copy availability.
// Selection is per open (DESIGN.md §3.1): from Open to the last Close the
// operations go to the copy chosen at Open, with no resolve and no poll.
type lvnode struct {
	l    *Layer
	path []string

	sess  sync.Mutex                // held across an Open or Close: the next Open finds this one's pin
	opens int                       // under sess: Opens not yet matched by a Close
	pin   atomic.Pointer[candidate] // the copy chosen at Open; nil: select per operation
}

// candidate is one resolved replica copy of this logical file.
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

// resolve resolves path on replica r and caches the answer.  A miss looks
// the last name up in the parent's resolution, itself cached or resolved the
// same way, not from the replica root; cached reports that the answer rests on
// a cached resolution.  Such a resolution may be stale, so a lookup that fails
// below one is checked against a walk from the root to the parent: unless the
// walk reaches the same directory, the name is looked up again in the one it
// reaches.  Every failure answers what a walk from the root answers.
func (l *Layer) resolve(path []string, r Replica) (vn vnode.Vnode, cached bool, err error) {
	key := strings.Join(path, "/")
	if vn, ok := l.cacheGet(key, r.ID); ok {
		return vn, true, nil
	}
	if len(path) == 0 {
		vn, err = r.FS.Root()
	} else {
		parent, name := path[:len(path)-1], path[len(path)-1]
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
	l.cachePut(key, r.ID, vn)
	return vn, cached, nil
}

// walk resolves path on replica r from its root, caching each prefix it
// resolves.  Where it fails, that prefix's entry and the longer ones on path,
// which rested on it, are dropped.
func (l *Layer) walk(path []string, r Replica) (vnode.Vnode, error) {
	vn, err := r.FS.Root()
	for i := 0; ; i++ {
		if err != nil {
			for ; i <= len(path); i++ {
				l.cacheDrop(strings.Join(path[:i], "/"), r.ID)
			}
			return nil, err
		}
		l.cachePut(strings.Join(path[:i], "/"), r.ID, vn)
		if i == len(path) {
			return vn, nil
		}
		vn, err = vn.Lookup(path[i])
	}
}

// copies yields this file's copy on each replica that resolves it, in
// configuration order, touching replica i+1 only if yield wants more.  If it
// yields nothing it returns why: a definite answer (ENOENT) outranks EUNAVAIL.
func (v *lvnode) copies(yield func(candidate) bool) error {
	bestErr := error(vnode.EUNAVAIL)
	for _, r := range v.l.replicas {
		vn, err := v.resolveOn(r)
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

// candidates yields the copies in the selection policy's order, to a caller
// about to use that order (Open, or an operation on a vnode that is not open):
// MostRecent polls each copy's update count (exposed as Mtime, the version
// vector total) and puts the newest first — "select the most recent copy
// available" (§2.5); FirstAvailable is copies itself, lazy.  Errors as copies.
func (v *lvnode) candidates(yield func(candidate) bool) error {
	if v.l.policy != MostRecent {
		return v.copies(yield)
	}
	var out []candidate
	err := v.copies(func(c candidate) bool { out = append(out, c); return true })
	if len(out) > 1 {
		best := 0
		var bestM uint64
		for i, c := range out {
			a, err := c.vn.Getattr()
			if err != nil {
				continue
			}
			if i == 0 || a.Mtime > bestM {
				best, bestM = i, a.Mtime
			}
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
	v.l.cacheDrop(v.key(), c.rep.ID)
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
	err := v.candidates(func(c candidate) (retry bool) {
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

func (v *lvnode) key() string { return strings.Join(v.path, "/") }

// childKey is the cache key of a child of this directory.
func (v *lvnode) childKey(name string) string {
	if len(v.path) == 0 {
		return name
	}
	return v.key() + "/" + name
}

func (v *lvnode) child(name string) *lvnode {
	p := make([]string, 0, len(v.path)+1)
	p = append(p, v.path...)
	return &lvnode{l: v.l, path: append(p, name)}
}

// Handle identifies the logical file by volume and path.
func (v *lvnode) Handle() string {
	return "ficus:" + v.l.vol.String() + ":/" + strings.Join(v.path, "/")
}

func checkLogicalName(name string) error {
	if len(name) > MaxName {
		return vnode.ENAMETOOLONG
	}
	return nil
}

// Lookup asks, it does not vote: some reachable replica holds the name.
func (v *lvnode) Lookup(name string) (vnode.Vnode, error) {
	if err := checkLogicalName(name); err != nil {
		return nil, err
	}
	child := v.child(name)
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
		key := child.key()
		if v.l.cachePlain(key, c.rep.ID, c.vn) {
			a = vnode.Attr{}
			return false
		}
		var aerr error
		if a, aerr = c.vn.Getattr(); aerr == nil && a.GraftVol == "" {
			v.l.cacheMarkPlain(key, c.rep.ID, c.vn)
		}
		return aerr != nil
	}
	if v.l.graft == nil {
		ask = func(candidate) bool { return false }
	}
	if err := child.copies(ask); err != nil {
		return nil, err
	}
	if a.GraftVol == "" {
		return child, nil
	}
	if target, perr := ids.ParseVolumeHandle(a.GraftVol); perr == nil {
		_ = child.candidates(ask)
		return v.l.graft(target, held.vn)
	}
	return child, nil
}

// makeChild is Create and Mkdir: op makes the child in one copy of this directory,
// and the vnode that replica returned is kept as the child's resolution there.
// The directory is announced only if op changed it.
func (v *lvnode) makeChild(name string, op func(dir vnode.Vnode) (child vnode.Vnode, changed bool, err error)) (vnode.Vnode, error) {
	if err := checkLogicalName(name); err != nil {
		return nil, err
	}
	defer v.l.lockFile(v.key()).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		vn, changed, err := op(c.vn)
		if err != nil {
			return "", err
		}
		v.l.cachePut(v.childKey(name), c.rep.ID, vn)
		if !changed {
			return "", nil
		}
		return c.vn.Handle(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.child(name), nil
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
	defer v.l.lockFile(v.key()).unlock()
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
// policy once, goes to the chosen copy's own parent directory and pins that
// copy; the last matching close follows it there and ends the pin.
func (v *lvnode) shipOpenClose(open bool, flags vnode.OpenFlags) error {
	if len(v.path) == 0 {
		return nil
	}
	parent := &lvnode{l: v.l, path: v.path[:len(v.path)-1]}
	name := v.path[len(v.path)-1]
	enc := encodeOpen(open, flags, v.l.vol, name)
	v.sess.Lock()
	defer v.sess.Unlock()
	var chose candidate
	err := v.readOp(func(c candidate) error {
		chose = c
		dir, err := parent.resolveOn(c.rep)
		if err == nil {
			_, err = dir.Lookup(enc)
		}
		if err != nil && retriable(err) {
			v.l.cacheDrop(parent.key(), c.rep.ID) // the stale vnode may be the directory's
		}
		return err
	})
	if !open {
		if v.opens = max(v.opens-1, 0); v.opens == 0 {
			v.pin.Store(nil)
		}
	} else if err == nil {
		v.opens++
		v.pin.CompareAndSwap(nil, &chose)
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
	defer v.l.lockFile(v.key()).unlock()
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
	defer v.l.lockFile(v.key()).unlock()
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
	defer v.l.lockFile(v.key()).unlock()
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
	defer v.l.lockFile(v.key()).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Remove(name); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
	if err == nil {
		v.l.cacheDropSubtree(v.childKey(name))
	}
	return err
}

func (v *lvnode) Rmdir(name string) error {
	if err := checkLogicalName(name); err != nil {
		return err
	}
	defer v.l.lockFile(v.key()).unlock()
	err := v.writeOp(func(c candidate) (string, error) {
		if err := c.vn.Rmdir(name); err != nil {
			return "", err
		}
		return c.vn.Handle(), nil
	})
	if err == nil {
		v.l.cacheDropSubtree(v.childKey(name))
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
	defer v.l.lockFile(v.key()).unlock()
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
	defer v.l.lockFile(v.key()).unlock()
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
		v.l.cacheDropSubtree(v.childKey(oldName))
		v.l.cacheDropSubtree(d.childKey(newName))
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
