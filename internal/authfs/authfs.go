// Package authfs is a stackable user-authentication layer — the third of
// the services the paper expects to slip into a vnode stack ("we expect to
// use it for performance monitoring, user authentication and encryption",
// §1).  A mount carries a credential; an access-control list maps
// (principal, path prefix) to read/write rights; every operation that
// crosses the layer is checked before it is forwarded.  Like the other
// layers it is purely interposed: nothing below it changes.
package authfs

import (
	"strings"
	"sync"

	"repro/internal/vnode"
)

// Perm is a set of access rights.
type Perm int

// Rights.
const (
	PermRead Perm = 1 << iota
	PermWrite
)

// PermAll grants everything.
const PermAll = PermRead | PermWrite

// Credential identifies a principal for one mount of the layer.
type Credential struct {
	User string
}

// Anyone matches every principal in a rule.
const Anyone = "*"

// Rule grants rights to a principal under a path prefix ("" or "/" = the
// whole tree).  Later rules override earlier ones.
type Rule struct {
	User   string
	Prefix string
	Perm   Perm
}

// ACL is an ordered rule list with a default.  Safe for concurrent use;
// one ACL is typically shared by many mounts.
type ACL struct {
	mu    sync.RWMutex
	def   Perm
	rules []Rule
}

// NewACL builds an ACL whose unmatched default is def.
func NewACL(def Perm, rules ...Rule) *ACL {
	return &ACL{def: def, rules: rules}
}

// Append adds a rule (later rules win).
func (a *ACL) Append(r Rule) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rules = append(a.rules, r)
}

// Allowed reports whether user holds all rights in want on path.
func (a *ACL) Allowed(user, path string, want Perm) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	perm := a.def
	for _, r := range a.rules {
		if r.User != Anyone && r.User != user {
			continue
		}
		if !prefixMatch(r.Prefix, path) {
			continue
		}
		perm = r.Perm
	}
	return perm&want == want
}

func prefixMatch(prefix, path string) bool {
	prefix = strings.Trim(prefix, "/")
	path = strings.Trim(path, "/")
	if prefix == "" {
		return true
	}
	if path == prefix {
		return true
	}
	return strings.HasPrefix(path, prefix+"/")
}

// VFS is one credentialed view of the lower file system.  Root and Sync
// forward unchecked (no rights are needed to flush).
type VFS struct {
	vnode.Layer
	acl  *ACL
	cred Credential
}

// New wraps lower with access control under cred.
func New(lower vnode.VFS, acl *ACL, cred Credential) *VFS {
	a := &VFS{acl: acl, cred: cred}
	a.Layer = vnode.Layer{Lower: lower, Wrap: func(p vnode.Pass) vnode.Vnode { return &anode{Pass: p, fs: a} }}
	return a
}

func (a *VFS) check(path string, want Perm) error {
	if a.acl.Allowed(a.cred.User, path, want) {
		return nil
	}
	return vnode.EPERM
}

// anode overrides each operation it checks; Handle, Close and Fsync pass
// through unchecked.
type anode struct {
	vnode.Pass
	fs   *VFS
	path string
}

func (v *anode) childPath(name string) string {
	if v.path == "" {
		return name
	}
	return v.path + "/" + name
}

// child checks want on name's path, runs op, and gives the vnode the base
// wrapped for it that path.
func (v *anode) child(name string, want Perm, op func(string) (vnode.Vnode, error)) (vnode.Vnode, error) {
	p := v.childPath(name)
	if err := v.fs.check(p, want); err != nil {
		return nil, err
	}
	c, err := op(name)
	if err != nil {
		return nil, err
	}
	c.(*anode).path = p
	return c, nil
}

func (v *anode) Lookup(name string) (vnode.Vnode, error) {
	return v.child(name, PermRead, v.Pass.Lookup)
}

func (v *anode) Create(name string, excl bool) (vnode.Vnode, error) {
	return v.child(name, PermWrite, func(name string) (vnode.Vnode, error) { return v.Pass.Create(name, excl) })
}

func (v *anode) Mkdir(name string) (vnode.Vnode, error) {
	return v.child(name, PermWrite, v.Pass.Mkdir)
}

func (v *anode) Symlink(name, target string) error {
	if err := v.fs.check(v.childPath(name), PermWrite); err != nil {
		return err
	}
	return v.Pass.Symlink(name, target)
}

func (v *anode) Readlink() (string, error) {
	if err := v.fs.check(v.path, PermRead); err != nil {
		return "", err
	}
	return v.Pass.Readlink()
}

func (v *anode) Open(f vnode.OpenFlags) error {
	want := PermRead
	if f&vnode.OpenWrite != 0 {
		want |= PermWrite
	}
	if err := v.fs.check(v.path, want); err != nil {
		return err
	}
	return v.Pass.Open(f)
}

func (v *anode) ReadAt(p []byte, off int64) (int, error) {
	if err := v.fs.check(v.path, PermRead); err != nil {
		return 0, err
	}
	return v.Pass.ReadAt(p, off)
}

func (v *anode) WriteAt(p []byte, off int64) (int, error) {
	if err := v.fs.check(v.path, PermWrite); err != nil {
		return 0, err
	}
	return v.Pass.WriteAt(p, off)
}

func (v *anode) Truncate(size uint64) error {
	if err := v.fs.check(v.path, PermWrite); err != nil {
		return err
	}
	return v.Pass.Truncate(size)
}

func (v *anode) Getattr() (vnode.Attr, error) {
	if err := v.fs.check(v.path, PermRead); err != nil {
		return vnode.Attr{}, err
	}
	return v.Pass.Getattr()
}

func (v *anode) Setattr(sa vnode.SetAttr) error {
	if err := v.fs.check(v.path, PermWrite); err != nil {
		return err
	}
	return v.Pass.Setattr(sa)
}

// Access answers the rights question directly from the ACL.
func (v *anode) Access(mode uint16) error {
	var want Perm
	if mode&0o4 != 0 {
		want |= PermRead
	}
	if mode&0o2 != 0 {
		want |= PermWrite
	}
	if want == 0 {
		want = PermRead
	}
	return v.fs.check(v.path, want)
}

func (v *anode) Remove(name string) error {
	if err := v.fs.check(v.childPath(name), PermWrite); err != nil {
		return err
	}
	return v.Pass.Remove(name)
}

func (v *anode) Rmdir(name string) error {
	if err := v.fs.check(v.childPath(name), PermWrite); err != nil {
		return err
	}
	return v.Pass.Rmdir(name)
}

// Link and Rename check rights only against a peer of this layer; the
// base answers EXDEV to any other.
func (v *anode) Link(name string, target vnode.Vnode) error {
	if t, ok := target.(*anode); ok && t.fs == v.fs {
		if err := v.fs.check(v.childPath(name), PermWrite); err != nil {
			return err
		}
		if err := v.fs.check(t.path, PermRead); err != nil {
			return err
		}
	}
	return v.Pass.Link(name, target)
}

func (v *anode) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	if d, ok := dstDir.(*anode); ok && d.fs == v.fs {
		if err := v.fs.check(v.childPath(oldName), PermWrite); err != nil {
			return err
		}
		if err := v.fs.check(d.childPath(newName), PermWrite); err != nil {
			return err
		}
	}
	return v.Pass.Rename(oldName, dstDir, newName)
}

func (v *anode) Readdir() ([]vnode.Dirent, error) {
	if err := v.fs.check(v.path, PermRead); err != nil {
		return nil, err
	}
	return v.Pass.Readdir()
}
