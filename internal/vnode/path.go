package vnode

import (
	"io"
	"strings"
)

// SplitPath breaks a slash-separated path into components, ignoring empty
// segments ("//", leading and trailing slashes) and "." segments.
func SplitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// Walk resolves a slash-separated path from dir by repeated Lookup, the way
// the system-call layer translates pathnames component by component (which
// is what lets autografting intercept graft points mid-walk, paper §4.4).
func Walk(dir Vnode, path string) (Vnode, error) {
	v := dir
	for _, name := range SplitPath(path) {
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
	parts := SplitPath(path)
	if len(parts) == 0 {
		return nil, "", EINVAL
	}
	parent, err := walkParts(dir, parts[:len(parts)-1])
	if err != nil {
		return nil, "", err
	}
	return parent, parts[len(parts)-1], nil
}

func walkParts(dir Vnode, parts []string) (Vnode, error) {
	v := dir
	for _, name := range parts {
		c, err := v.Lookup(name)
		if err != nil {
			return nil, err
		}
		v = c
	}
	return v, nil
}

// MkdirAll creates every missing directory along path and returns the final
// directory vnode.
func MkdirAll(dir Vnode, path string) (Vnode, error) {
	v := dir
	for _, name := range SplitPath(path) {
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
