package vnode

import (
	"io"
	"strings"
)

// NextName steps through a slash-separated path in place: it returns the
// first component at or after byte i, skipping empty segments ("//", leading
// and trailing slashes) and "." segments, and the index to step on from; name
// is "" once none is left.  From i = 0 it visits the path's components in
// order, slicing each out of path, so a walk builds no list of them.
func NextName(path string, i int) (name string, next int) {
	for i < len(path) {
		j := strings.IndexByte(path[i:], '/')
		if j < 0 {
			j = len(path) - i
		}
		name, i = path[i:i+j], i+j+1
		if name != "" && name != "." {
			return name, i
		}
	}
	return "", len(path)
}

// Walk resolves a slash-separated path from dir by repeated Lookup, the way
// the system-call layer translates pathnames component by component (which
// is what lets autografting intercept graft points mid-walk, paper §4.4).
func Walk(dir Vnode, path string) (Vnode, error) {
	v := dir
	for name, i := NextName(path, 0); name != ""; name, i = NextName(path, i) {
		c, err := v.Lookup(name)
		if err != nil {
			return nil, err
		}
		v = c
	}
	return v, nil
}

// WalkParent resolves all but the last component and returns the parent
// vnode plus the final name.  It fails with EINVAL for an empty path.
func WalkParent(dir Vnode, path string) (Vnode, string, error) {
	name, i := NextName(path, 0)
	if name == "" {
		return nil, "", EINVAL
	}
	v := dir
	for next, j := NextName(path, i); next != ""; next, j = NextName(path, j) {
		c, err := v.Lookup(name)
		if err != nil {
			return nil, "", err
		}
		v, name = c, next
	}
	return v, name, nil
}

// LastName returns path's last component, "" when it has none.
func LastName(path string) string {
	last := ""
	for name, i := NextName(path, 0); name != ""; name, i = NextName(path, i) {
		last = name
	}
	return last
}

// MkdirAll creates every missing directory along path and returns the final
// directory vnode.
func MkdirAll(dir Vnode, path string) (Vnode, error) {
	v := dir
	for name, i := NextName(path, 0); name != ""; name, i = NextName(path, i) {
		c, err := v.Lookup(name)
		if err == ENOENT || AsErrno(err) == ENOENT {
			c, err = v.Mkdir(name)
		}
		if err != nil {
			return nil, err
		}
		v = c
	}
	return v, nil
}

// ReadFile reads the entire contents of a file vnode.
func ReadFile(v Vnode) ([]byte, error) {
	a, err := v.Getattr()
	if err != nil {
		return nil, err
	}
	p := make([]byte, a.Size)
	if a.Size == 0 {
		return p, nil
	}
	n, err := v.ReadAt(p, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return p[:n], nil
}

// WriteFile replaces the entire contents of a file vnode with one update: the
// data is written over the old bytes, and the file is cut only if it was
// longer.
func WriteFile(v Vnode, data []byte) error {
	a, err := v.Getattr()
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := v.WriteAt(data, 0); err != nil {
			return err
		}
	}
	if a.Size > uint64(len(data)) {
		return v.Truncate(uint64(len(data)))
	}
	return nil
}
