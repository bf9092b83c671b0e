package ficus

import (
	"errors"
	"io"
	"io/fs"
	"slices"
	"strings"
	"sync"

	"repro/internal/vnode"
)

// Mount is a path-based view of one volume from one host.  Paths are
// slash-separated and resolved component by component through the logical
// layer, so graft points are crossed transparently.
type Mount struct {
	root vnode.Vnode
}

// Errors surfaced by Mount operations (errors.Is-compatible with the
// underlying layer errors).
var (
	// ErrNotExist mirrors fs.ErrNotExist semantics.
	ErrNotExist = vnode.ENOENT
	// ErrExist mirrors fs.ErrExist semantics.
	ErrExist = vnode.EEXIST
	// ErrUnavailable reports that no replica of the file is accessible.
	ErrUnavailable = vnode.EUNAVAIL
	// ErrConflict reports a replica update conflict.
	ErrConflict = vnode.ECONFL
)

// FileInfo describes a file, directory, or symlink.
type FileInfo struct {
	Name  string
	Size  uint64
	IsDir bool
	Mode  uint16
	// FileID is the stable Ficus identity of the file.
	FileID string
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// Root exposes the underlying root vnode (for advanced composition).
func (m *Mount) Root() vnode.Vnode { return m.root }

func (m *Mount) walk(path string) (vnode.Vnode, error) {
	return vnode.Walk(m.root, path)
}

// Stat describes the file at path.
func (m *Mount) Stat(path string) (FileInfo, error) {
	v, err := m.walk(path)
	if err != nil {
		return FileInfo{}, err
	}
	a, err := v.Getattr()
	if err != nil {
		return FileInfo{}, err
	}
	name := vnode.LastName(path)
	if name == "" {
		name = "/"
	}
	return FileInfo{
		Name:   name,
		Size:   a.Size,
		IsDir:  a.Type == vnode.VDir,
		Mode:   a.Mode,
		FileID: a.FileID,
	}, nil
}

// Mkdir creates one directory.
func (m *Mount) Mkdir(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	_, err = parent.Mkdir(name)
	return err
}

// MkdirAll creates every missing directory along path.
func (m *Mount) MkdirAll(path string) error {
	_, err := vnode.MkdirAll(m.root, path)
	return err
}

// WriteFile creates (or truncates) the file at path with data, bracketed by
// Open/Close so the physical layer's open bookkeeping is exercised exactly
// as the system-call layer would.
func (m *Mount) WriteFile(path string, data []byte) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	f, err := parent.Create(name, false)
	if err != nil {
		return err
	}
	if err := f.Open(vnode.OpenWrite); err != nil {
		return err
	}
	werr := vnode.WriteFile(f, data)
	cerr := f.Close(vnode.OpenWrite)
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadFile returns the contents of the file at path.
func (m *Mount) ReadFile(path string) ([]byte, error) {
	f, err := m.walk(path)
	if err != nil {
		return nil, err
	}
	if err := f.Open(vnode.OpenRead); err != nil {
		return nil, err
	}
	data, rerr := vnode.ReadFile(f)
	cerr := f.Close(vnode.OpenRead)
	if rerr != nil {
		return nil, rerr
	}
	return data, cerr
}

// Remove unlinks the file at path.
func (m *Mount) Remove(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	return parent.Remove(name)
}

// Rmdir removes the empty directory at path.
func (m *Mount) Rmdir(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	return parent.Rmdir(name)
}

// Rename moves oldPath to newPath (within this volume).
func (m *Mount) Rename(oldPath, newPath string) error {
	sp, sname, err := vnode.WalkParent(m.root, oldPath)
	if err != nil {
		return err
	}
	dp, dname, err := vnode.WalkParent(m.root, newPath)
	if err != nil {
		return err
	}
	return sp.Rename(sname, dp, dname)
}

// Link creates an additional name for the file at target in the same
// directory (Ficus names form a DAG; cross-directory hard links are not
// supported by the physical layer).
func (m *Mount) Link(target, newPath string) error {
	tv, err := m.walk(target)
	if err != nil {
		return err
	}
	parent, name, err := vnode.WalkParent(m.root, newPath)
	if err != nil {
		return err
	}
	return parent.Link(name, tv)
}

// Symlink creates a symbolic link at path pointing to target.
func (m *Mount) Symlink(target, path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	return parent.Symlink(name, target)
}

// Readlink returns a symlink's target.
func (m *Mount) Readlink(path string) (string, error) {
	v, err := m.walk(path)
	if err != nil {
		return "", err
	}
	return v.Readlink()
}

// ReadDir lists the directory at path, sorted by name.
func (m *Mount) ReadDir(path string) ([]DirEntry, error) {
	v, err := m.walk(path)
	if err != nil {
		return nil, err
	}
	ents, err := v.Readdir()
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, len(ents))
	for i, e := range ents {
		out[i] = DirEntry{Name: e.Name, IsDir: e.Type == vnode.VDir}
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// OpenFlag selects an open mode.
type OpenFlag int

// Open modes.
const (
	ReadOnly OpenFlag = 1 << iota
	WriteOnly
	Create
	Truncate
)

// ReadWrite combines both access modes.
const ReadWrite = ReadOnly | WriteOnly

// Open opens the file at path and returns a File with os.File-like
// semantics (io.Reader, io.Writer, io.Seeker, io.Closer, io.ReaderAt,
// io.WriterAt).
func (m *Mount) Open(path string, flags OpenFlag) (*File, error) {
	var v vnode.Vnode
	if flags&Create != 0 {
		parent, name, err := vnode.WalkParent(m.root, path)
		if err != nil {
			return nil, err
		}
		v, err = parent.Create(name, false)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		v, err = m.walk(path)
		if err != nil {
			return nil, err
		}
	}
	var of vnode.OpenFlags
	if flags&ReadOnly != 0 {
		of |= vnode.OpenRead
	}
	if flags&WriteOnly != 0 {
		of |= vnode.OpenWrite
	}
	if err := v.Open(of); err != nil {
		return nil, err
	}
	if flags&Truncate != 0 {
		if err := v.Truncate(0); err != nil {
			_ = v.Close(of)
			return nil, err
		}
	}
	return &File{v: v, flags: of}, nil
}

// File is an open Ficus file with a cursor.
type File struct {
	mu     sync.Mutex
	v      vnode.Vnode
	off    int64
	flags  vnode.OpenFlags
	closed bool
}

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	n, err := f.v.ReadAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	n, err := f.v.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.v.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.v.WriteAt(p, off) }

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		a, err := f.v.Getattr()
		if err != nil {
			return 0, err
		}
		base = int64(a.Size)
	default:
		return 0, errors.New("ficus: bad whence")
	}
	if base+offset < 0 {
		return 0, errors.New("ficus: negative position")
	}
	f.off = base + offset
	return f.off, nil
}

// Truncate sets the file's length.
func (f *File) Truncate(size uint64) error { return f.v.Truncate(size) }

// Sync forces the file to stable storage.
func (f *File) Sync() error { return f.v.Fsync() }

// Close releases the open (reaching the physical layer's open bookkeeping,
// over NFS via the lookup encoding).
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return f.v.Close(f.flags)
}
