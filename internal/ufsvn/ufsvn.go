// Package ufsvn adapts the UFS substrate (internal/ufs) to the vnode layer
// interface (internal/vnode), making UFS the bottom layer of Ficus stacks
// exactly as in paper Figure 1.  It also maps UFS errors onto the canonical
// vnode error vocabulary so upper layers and the NFS transport see a uniform
// error surface.
package ufsvn

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/ufs"
	"repro/internal/vnode"
)

// VFS wraps a mounted ufs.FS as a vnode.VFS.  It keeps one vnode per inode,
// made here once, and every call that names an inode returns that one — as
// the kernel's in-core inode table does — so a lookup allocates nothing.
type VFS struct {
	fs  *ufs.FS
	vns []vn // indexed by inode number
}

// New wraps fs.
func New(fs *ufs.FS) *VFS {
	v := &VFS{fs: fs, vns: make([]vn, fs.NumInodes())}
	for i := range v.vns {
		v.vns[i].vfs, v.vns[i].ino = v, ufs.Ino(i)
	}
	return v
}

// FS exposes the underlying UFS (used by experiments that need I/O
// accounting or cache control).
func (v *VFS) FS() *ufs.FS { return v.fs }

// Root returns the root vnode.
func (v *VFS) Root() (vnode.Vnode, error) {
	return &v.vns[v.fs.Root()], nil
}

// Sync flushes the (write-through) substrate.
func (v *VFS) Sync() error { return v.fs.Sync() }

// Resolve recovers a vnode from a handle previously returned by
// Vnode.Handle; unknown or freed handles yield ESTALE.
func (v *VFS) Resolve(handle string) (vnode.Vnode, error) {
	n, err := strconv.ParseUint(handle, 10, 32)
	if err != nil {
		return nil, vnode.ESTALE
	}
	ino := ufs.Ino(n)
	if _, err := v.fs.Stat(ino); err != nil {
		return nil, vnode.ESTALE
	}
	return &v.vns[ino], nil
}

type vn struct {
	vfs    *VFS
	ino    ufs.Ino
	handle atomic.Pointer[string] // the inode number in decimal, made on first use
}

func (v *vn) child(ino ufs.Ino) vnode.Vnode { return &v.vfs.vns[ino] }

// Handle is the inode number in decimal.  It is formatted once, on the first
// call, and every later call returns that string: the physical layer keys its
// caches by it on every lookup.
func (v *vn) Handle() string {
	if h := v.handle.Load(); h != nil {
		return *h
	}
	h := strconv.FormatUint(uint64(v.ino), 10)
	v.handle.Store(&h)
	return h
}

func (v *vn) Lookup(name string) (vnode.Vnode, error) {
	ino, err := v.vfs.fs.Lookup(v.ino, name)
	if err != nil {
		return nil, mapErr(err)
	}
	return v.child(ino), nil
}

func (v *vn) Create(name string, excl bool) (vnode.Vnode, error) {
	ino, err := v.vfs.fs.Create(v.ino, name)
	if err != nil {
		if errors.Is(err, ufs.ErrExist) && !excl {
			return v.Lookup(name)
		}
		return nil, mapErr(err)
	}
	return v.child(ino), nil
}

func (v *vn) Mkdir(name string) (vnode.Vnode, error) {
	ino, err := v.vfs.fs.Mkdir(v.ino, name)
	if err != nil {
		return nil, mapErr(err)
	}
	return v.child(ino), nil
}

func (v *vn) Symlink(name, target string) error {
	_, err := v.vfs.fs.Symlink(v.ino, name, target)
	return mapErr(err)
}

func (v *vn) Readlink() (string, error) {
	s, err := v.vfs.fs.Readlink(v.ino)
	return s, mapErr(err)
}

// Open and Close are accepted and ignored: plain UFS keeps no per-open
// state the upper layers care about.
func (v *vn) Open(vnode.OpenFlags) error  { return nil }
func (v *vn) Close(vnode.OpenFlags) error { return nil }

func (v *vn) ReadAt(p []byte, off int64) (int, error) {
	n, err := v.vfs.fs.ReadAt(v.ino, p, off)
	if err == io.EOF {
		return n, io.EOF
	}
	return n, mapErr(err)
}

func (v *vn) WriteAt(p []byte, off int64) (int, error) {
	n, err := v.vfs.fs.WriteAt(v.ino, p, off)
	return n, mapErr(err)
}

func (v *vn) Truncate(size uint64) error { return mapErr(v.vfs.fs.Truncate(v.ino, size)) }
func (v *vn) Fsync() error               { return mapErr(v.vfs.fs.Sync()) }

func (v *vn) Getattr() (vnode.Attr, error) {
	st, err := v.vfs.fs.Stat(v.ino)
	if err != nil {
		return vnode.Attr{}, mapErr(err)
	}
	return vnode.Attr{
		Type:   mapType(st.Type),
		Mode:   st.Mode,
		Nlink:  uint32(st.Nlink),
		Size:   st.Size,
		Mtime:  st.Mtime,
		Ctime:  st.Ctime,
		FileID: v.Handle(),
	}, nil
}

func (v *vn) Setattr(sa vnode.SetAttr) error {
	if sa.Mode != nil {
		if err := v.vfs.fs.SetMode(v.ino, *sa.Mode); err != nil {
			return mapErr(err)
		}
	}
	if sa.Size != nil {
		if err := v.vfs.fs.Truncate(v.ino, *sa.Size); err != nil {
			return mapErr(err)
		}
	}
	return nil
}

// Access always succeeds: permission enforcement is out of scope for the
// reproduction (the paper defers authentication to a future layer, §1).
func (v *vn) Access(uint16) error { return nil }

func (v *vn) Remove(name string) error { return mapErr(v.vfs.fs.Remove(v.ino, name)) }
func (v *vn) Rmdir(name string) error  { return mapErr(v.vfs.fs.Rmdir(v.ino, name)) }

func (v *vn) Link(name string, target vnode.Vnode) error {
	t, ok := target.(*vn)
	if !ok || t.vfs.fs != v.vfs.fs {
		return vnode.EXDEV
	}
	return mapErr(v.vfs.fs.Link(v.ino, name, t.ino))
}

func (v *vn) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	d, ok := dstDir.(*vn)
	if !ok || d.vfs.fs != v.vfs.fs {
		return vnode.EXDEV
	}
	return mapErr(v.vfs.fs.Rename(v.ino, oldName, d.ino, newName))
}

func (v *vn) Readdir() ([]vnode.Dirent, error) {
	ents, err := v.vfs.fs.Readdir(v.ino)
	if err != nil {
		return nil, mapErr(err)
	}
	out := make([]vnode.Dirent, 0, len(ents))
	for _, e := range ents {
		st, err := v.vfs.fs.Stat(e.Ino)
		if err != nil {
			return nil, mapErr(err)
		}
		out = append(out, vnode.Dirent{
			Name:   e.Name,
			FileID: v.vfs.vns[e.Ino].Handle(),
			Type:   mapType(st.Type),
		})
	}
	return out, nil
}

func mapType(t ufs.FileType) vnode.VType {
	switch t {
	case ufs.TypeFile:
		return vnode.VReg
	case ufs.TypeDir:
		return vnode.VDir
	case ufs.TypeSymlink:
		return vnode.VLnk
	default:
		return vnode.VNon
	}
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ufs.ErrNotExist):
		return vnode.ENOENT
	case errors.Is(err, ufs.ErrExist):
		return vnode.EEXIST
	case errors.Is(err, ufs.ErrNotDir):
		return vnode.ENOTDIR
	case errors.Is(err, ufs.ErrIsDir):
		return vnode.EISDIR
	case errors.Is(err, ufs.ErrNotEmpty):
		return vnode.ENOTEMPTY
	case errors.Is(err, ufs.ErrNameTooLong):
		return vnode.ENAMETOOLONG
	case errors.Is(err, ufs.ErrInvalidName), errors.Is(err, ufs.ErrInvalidWhere):
		return vnode.EINVAL
	case errors.Is(err, ufs.ErrNoSpace), errors.Is(err, ufs.ErrNoInodes), errors.Is(err, ufs.ErrFileTooBig):
		return vnode.ENOSPC
	case errors.Is(err, ufs.ErrBadInode):
		return vnode.ESTALE
	case errors.Is(err, ufs.ErrLinkedDir), errors.Is(err, ufs.ErrDirLoop):
		return vnode.EPERM
	case errors.Is(err, ufs.ErrNotSymlink):
		return vnode.EINVAL
	default:
		// Keep the cause in the chain (not just its text): an injected
		// transient disk error must stay errors.As-reachable so the retry
		// machinery can classify a flaky platter like a flaky link.
		return fmt.Errorf("%w: %w", vnode.EIO, err)
	}
}
