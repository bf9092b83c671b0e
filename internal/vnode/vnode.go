// Package vnode defines the symmetric layer interface at the heart of the
// Ficus stackable-layers architecture (paper §2.1): "the syntactic
// interface used to export services provided by a particular module is the
// same interface used by that module to access services provided by other
// modules in the stack."
//
// It is modelled on the SunOS vnode interface (Kleiman 1986) that Ficus
// adopted: about two dozen operations covering naming, attribute, data and
// directory services.  Every Ficus layer — logical, NFS transport,
// physical — both implements and consumes this interface, so layers can be
// inserted, removed, or split across hosts without modifying their
// neighbours.  The package also supplies the null (pass-through) layer and
// an instrumented hook layer used by the layer-crossing-cost experiments
// (E1, E2).
package vnode

import "fmt"

// VType is a vnode's file type.
type VType int

// Vnode types.
const (
	VNon VType = iota // invalid
	VReg              // regular file
	VDir              // directory
	VLnk              // symbolic link
)

// String names the type.
func (t VType) String() string {
	switch t {
	case VReg:
		return "file"
	case VDir:
		return "dir"
	case VLnk:
		return "symlink"
	default:
		return fmt.Sprintf("VType(%d)", int(t))
	}
}

// OpenFlags carries the intent of an Open or Close.
type OpenFlags int

// Open intents.
const (
	OpenRead  OpenFlags = 1 << iota // open for reading
	OpenWrite                       // open for writing
)

// EncodedLookupPrefix begins every Lookup name that is not a name but a
// request shipped through the Lookup service (the open and close of §2.3;
// internal/physical owns the rest of the encoding).  Such a lookup acts on
// the layer that decodes it each time it is issued, so a layer in between
// must pass it on uninterpreted: it is never answered from, nor entered
// into, a name cache.
const EncodedLookupPrefix = ".#ficus#:"

// Attr is the attribute block returned by Getattr.
type Attr struct {
	Type  VType
	Mode  uint16
	Nlink uint32
	Size  uint64
	Mtime uint64 // logical clock, monotone per file system
	Ctime uint64
	// FileID is an opaque stable identity for the file within its file
	// system (a UFS inode number, or a Ficus file handle).  Two vnodes
	// reached by different names denote the same file iff their FileIDs
	// are equal.
	FileID string
	// GraftVol is set by the Ficus physical layer on graft points: the
	// string form of the volume to be grafted here (paper §4.3).  Empty
	// everywhere else.  Carrying it in the attribute block lets the graft
	// marker cross the NFS transport without a new vnode operation — the
	// same trick the paper plays with open/close over lookup (§2.3).
	GraftVol string
}

// SetAttr updates selected attributes; nil fields are left unchanged.
type SetAttr struct {
	Mode *uint16
	Size *uint64
}

// Dirent is one directory entry.
type Dirent struct {
	Name   string
	FileID string
	Type   VType
	// Value is the auxiliary payload Ficus graft-point entries carry (the
	// storage-site address of a volume replica, paper §4.3).  Empty for
	// ordinary entries.
	Value string
}

// Vnode is one file, directory or symlink as seen through a layer.  All
// implementations must be safe for concurrent use.
//
// Directory-shaped operations (Lookup, Create, ...) fail with ENOTDIR on
// non-directories; data operations fail with EISDIR on directories.
type Vnode interface {
	// Handle returns an opaque token from which the owning layer can
	// recover this vnode (the NFS file handle of paper §2.2).  Handles are
	// stable across lookups of the same file.
	Handle() string

	// Lookup resolves one name component in this directory.
	Lookup(name string) (Vnode, error)
	// Create makes (or, when excl is false, reuses) a regular file.
	Create(name string, excl bool) (Vnode, error)
	// Mkdir makes a directory.
	Mkdir(name string) (Vnode, error)
	// Symlink makes a symbolic link to target.
	Symlink(name, target string) error
	// Readlink returns a symlink's target.
	Readlink() (string, error)

	// Open announces intent to use the file.  NFS famously discards this
	// call (paper §2.2); the Ficus logical layer therefore re-encodes it
	// through Lookup (§2.3).
	Open(flags OpenFlags) error
	// Close announces the end of use.
	Close(flags OpenFlags) error

	// ReadAt reads at a byte offset, returning io.EOF semantics as os.File.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes at a byte offset, extending the file as needed.
	WriteAt(p []byte, off int64) (int, error)
	// Truncate sets the file length.
	Truncate(size uint64) error
	// Fsync forces the file to stable storage.
	Fsync() error

	// Getattr returns the attribute block.
	Getattr() (Attr, error)
	// Setattr updates attributes.
	Setattr(sa SetAttr) error
	// Access checks permission bits (informational in this reproduction).
	Access(mode uint16) error

	// Remove unlinks a non-directory child.
	Remove(name string) error
	// Rmdir removes an empty child directory.
	Rmdir(name string) error
	// Link adds a hard link to target under name.
	Link(name string, target Vnode) error
	// Rename moves oldName in this directory to newName in dstDir (which
	// must belong to the same layer instance).
	Rename(oldName string, dstDir Vnode, newName string) error
	// Readdir lists entries, excluding "." and "..".
	Readdir() ([]Dirent, error)
}

// VFS is a mounted file system exposing a root vnode.
type VFS interface {
	// Root returns the root directory vnode.
	Root() (Vnode, error)
	// Sync flushes any volatile state to stable storage.
	Sync() error
}
