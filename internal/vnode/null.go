package vnode

import "sync/atomic"

// Layer is one instance of a pass-through layer: the VFS below it and how
// it wraps the vnodes of that VFS.  Its vnodes are Pass vnodes, which
// forward every operation below; a layer that changes some operations
// embeds Pass in its own vnode type, overrides just those, and sets Wrap to
// build that type.  Root and Sync forward too.
type Layer struct {
	Lower VFS
	// Wrap builds this layer's vnode around p; nil builds a bare *Pass.
	Wrap func(p Pass) Vnode
}

// NullVFS is the null layer: a Layer that overrides nothing.  Per paper
// §6, the cost of crossing it is one procedure call, one pointer
// indirection, and storage for another vnode block — experiment E2
// measures exactly that by interposing N of these.
type NullVFS = Layer

// NewNull interposes a null layer above lower.
func NewNull(lower VFS) *NullVFS { return &NullVFS{Lower: lower} }

// Root returns the wrapped root of the lower layer.
func (l *Layer) Root() (Vnode, error) {
	v, err := l.Lower.Root()
	if err != nil {
		return nil, err
	}
	return l.wrap(v), nil
}

// Sync forwards to the lower layer.
func (l *Layer) Sync() error { return l.Lower.Sync() }

// wrap rewraps a vnode the layer below returned.  The null layer's block
// is allocated here, with no call through Wrap.
func (l *Layer) wrap(lower Vnode) Vnode {
	if l.Wrap == nil {
		return &Pass{layer: l, lower: lower}
	}
	return l.Wrap(Pass{layer: l, lower: lower})
}

// Pass is the pass-through vnode, the paper's "vnode block" (§6): a
// pointer to its layer instance and the vnode below, 24 bytes.  Every
// operation forwards to the vnode below; Lookup, Create and Mkdir wrap the
// vnode they return through the layer; and Link and Rename take their peer
// only from the same layer instance, handing the layer below the peer's
// own lower vnode, and answer EXDEV to a peer from anywhere else.
type Pass struct {
	layer *Layer
	lower Vnode
}

// base lets Link and Rename find the Pass inside a peer of any layer type.
func (v *Pass) base() *Pass { return v }

// peer returns the vnode below p, which must belong to v's layer instance.
func (v *Pass) peer(p Vnode) (Vnode, error) {
	if b, ok := p.(interface{ base() *Pass }); ok && b.base().layer == v.layer {
		return b.base().lower, nil
	}
	return nil, EXDEV
}

func (v *Pass) Handle() string { return v.lower.Handle() }

func (v *Pass) Lookup(name string) (Vnode, error) {
	c, err := v.lower.Lookup(name)
	if err != nil {
		return nil, err
	}
	return v.layer.wrap(c), nil
}

func (v *Pass) Create(name string, excl bool) (Vnode, error) {
	c, err := v.lower.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return v.layer.wrap(c), nil
}

func (v *Pass) Mkdir(name string) (Vnode, error) {
	c, err := v.lower.Mkdir(name)
	if err != nil {
		return nil, err
	}
	return v.layer.wrap(c), nil
}

func (v *Pass) Symlink(name, target string) error { return v.lower.Symlink(name, target) }
func (v *Pass) Readlink() (string, error)         { return v.lower.Readlink() }
func (v *Pass) Open(f OpenFlags) error            { return v.lower.Open(f) }
func (v *Pass) Close(f OpenFlags) error           { return v.lower.Close(f) }

func (v *Pass) ReadAt(p []byte, off int64) (int, error)  { return v.lower.ReadAt(p, off) }
func (v *Pass) WriteAt(p []byte, off int64) (int, error) { return v.lower.WriteAt(p, off) }
func (v *Pass) Truncate(size uint64) error               { return v.lower.Truncate(size) }
func (v *Pass) Fsync() error                             { return v.lower.Fsync() }

func (v *Pass) Getattr() (Attr, error)     { return v.lower.Getattr() }
func (v *Pass) Setattr(sa SetAttr) error   { return v.lower.Setattr(sa) }
func (v *Pass) Access(mode uint16) error   { return v.lower.Access(mode) }
func (v *Pass) Remove(name string) error   { return v.lower.Remove(name) }
func (v *Pass) Rmdir(name string) error    { return v.lower.Rmdir(name) }
func (v *Pass) Readdir() ([]Dirent, error) { return v.lower.Readdir() }

func (v *Pass) Link(name string, target Vnode) error {
	t, err := v.peer(target)
	if err != nil {
		return err
	}
	return v.lower.Link(name, t)
}

func (v *Pass) Rename(oldName string, dstDir Vnode, newName string) error {
	d, err := v.peer(dstDir)
	if err != nil {
		return err
	}
	return v.lower.Rename(oldName, d, newName)
}

// HookVFS is a null layer with a counter and an optional callback invoked
// before every forwarded operation.  It is the "performance monitoring"
// layer the paper anticipates slipping into a stack (§1) and the probe used
// by E1/E2 and examples/layers.
type HookVFS struct {
	Layer
	ops    atomic.Uint64
	onCall func(op string)
}

// NewHook interposes a hook layer above lower; onCall may be nil.
func NewHook(lower VFS, onCall func(op string)) *HookVFS {
	h := &HookVFS{onCall: onCall}
	h.Layer = Layer{Lower: lower, Wrap: func(p Pass) Vnode { return &hookVnode{p, h} }}
	return h
}

// Ops returns the number of operations that have crossed this layer.
func (h *HookVFS) Ops() uint64 { return h.ops.Load() }

func (h *HookVFS) note(op string) {
	h.ops.Add(1)
	if h.onCall != nil {
		h.onCall(op)
	}
}

// Root returns the wrapped, counted root.
func (h *HookVFS) Root() (Vnode, error) {
	h.note("root")
	return h.Layer.Root()
}

type hookVnode struct {
	Pass
	h *HookVFS
}

func (v *hookVnode) Lookup(name string) (Vnode, error) {
	v.h.note("lookup")
	return v.Pass.Lookup(name)
}

func (v *hookVnode) Create(name string, excl bool) (Vnode, error) {
	v.h.note("create")
	return v.Pass.Create(name, excl)
}

func (v *hookVnode) Mkdir(name string) (Vnode, error) {
	v.h.note("mkdir")
	return v.Pass.Mkdir(name)
}

func (v *hookVnode) Symlink(name, target string) error {
	v.h.note("symlink")
	return v.Pass.Symlink(name, target)
}

func (v *hookVnode) Readlink() (string, error) {
	v.h.note("readlink")
	return v.Pass.Readlink()
}

func (v *hookVnode) Open(f OpenFlags) error {
	v.h.note("open")
	return v.Pass.Open(f)
}

func (v *hookVnode) Close(f OpenFlags) error {
	v.h.note("close")
	return v.Pass.Close(f)
}

func (v *hookVnode) ReadAt(p []byte, off int64) (int, error) {
	v.h.note("read")
	return v.Pass.ReadAt(p, off)
}

func (v *hookVnode) WriteAt(p []byte, off int64) (int, error) {
	v.h.note("write")
	return v.Pass.WriteAt(p, off)
}

func (v *hookVnode) Truncate(size uint64) error {
	v.h.note("truncate")
	return v.Pass.Truncate(size)
}

func (v *hookVnode) Fsync() error {
	v.h.note("fsync")
	return v.Pass.Fsync()
}

func (v *hookVnode) Getattr() (Attr, error) {
	v.h.note("getattr")
	return v.Pass.Getattr()
}

func (v *hookVnode) Setattr(sa SetAttr) error {
	v.h.note("setattr")
	return v.Pass.Setattr(sa)
}

func (v *hookVnode) Access(mode uint16) error {
	v.h.note("access")
	return v.Pass.Access(mode)
}

func (v *hookVnode) Remove(name string) error {
	v.h.note("remove")
	return v.Pass.Remove(name)
}

func (v *hookVnode) Rmdir(name string) error {
	v.h.note("rmdir")
	return v.Pass.Rmdir(name)
}

func (v *hookVnode) Readdir() ([]Dirent, error) {
	v.h.note("readdir")
	return v.Pass.Readdir()
}

func (v *hookVnode) Link(name string, target Vnode) error {
	v.h.note("link")
	return v.Pass.Link(name, target)
}

func (v *hookVnode) Rename(oldName string, dstDir Vnode, newName string) error {
	v.h.note("rename")
	return v.Pass.Rename(oldName, dstDir, newName)
}
