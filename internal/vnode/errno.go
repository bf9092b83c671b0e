package vnode

import (
	"errors"
	"fmt"
)

// Errno is the canonical error vocabulary shared by all layers.  Because the
// NFS layer must carry errors across a wire (paper §2.2), every layer maps
// its internal errors to these values at its boundary; errors.Is works both
// locally and across the transport.
type Errno int

// Canonical error codes.
const (
	EOK Errno = iota
	ENOENT
	EEXIST
	ENOTDIR
	EISDIR
	ENOTEMPTY
	ENAMETOOLONG
	EINVAL
	ENOSPC
	EIO
	ESTALE   // handle no longer resolves (NFS semantics)
	EROFS    // replica not writable under the active policy
	EXDEV    // cross-layer or cross-volume operation
	EPERM    // operation not permitted (e.g. hard link to directory)
	ENOTSUP  // operation not supported by this layer
	ECONFL   // version-vector conflict detected on a regular file
	EUNAVAIL // no replica of the file is currently accessible
	ENOSTOR  // entry known but this volume replica stores no copy (§4.1)
)

var errnoNames = map[Errno]string{
	EOK:          "success",
	ENOENT:       "no such file or directory",
	EEXIST:       "file exists",
	ENOTDIR:      "not a directory",
	EISDIR:       "is a directory",
	ENOTEMPTY:    "directory not empty",
	ENAMETOOLONG: "name too long",
	EINVAL:       "invalid argument",
	ENOSPC:       "no space on device",
	EIO:          "input/output error",
	ESTALE:       "stale file handle",
	EROFS:        "read-only replica",
	EXDEV:        "cross-device operation",
	EPERM:        "operation not permitted",
	ENOTSUP:      "operation not supported",
	ECONFL:       "replica update conflict",
	EUNAVAIL:     "no replica accessible",
	ENOSTOR:      "file not stored in this volume replica",
}

// Error implements the error interface.
func (e Errno) Error() string {
	if s, ok := errnoNames[e]; ok {
		return "vnode: " + s
	}
	return fmt.Sprintf("vnode: errno %d", int(e))
}

// Code returns the wire representation.
func (e Errno) Code() int { return int(e) }

// ErrnoFromCode recovers an Errno from its wire code, defaulting to EIO for
// unknown codes so a garbled wire error never becomes a silent success.
func ErrnoFromCode(c int) Errno {
	e := Errno(c)
	if _, ok := errnoNames[e]; !ok || e == EOK {
		if e == EOK {
			return EOK
		}
		return EIO
	}
	return e
}

// AsErrno maps an arbitrary error to the canonical vocabulary.  Errno values
// pass through; anything else degrades to EIO.  Layers adapt their
// substrate's errors before results cross a layer boundary.
func AsErrno(err error) Errno {
	if err == nil {
		return EOK
	}
	if e, ok := err.(Errno); ok { // the common case, without the allocation errors.As costs
		return e
	}
	var e Errno
	if errors.As(err, &e) {
		return e
	}
	return EIO
}
