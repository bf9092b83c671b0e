package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	ficus "repro"
	"repro/internal/vnode"
)

// fsys is the client-visible call surface both the cluster and the rig
// are driven through: the ficus.Mount methods the workloads use.
type fsys interface {
	ReadFile(path string) ([]byte, error)
	StatSize(path string) (uint64, error)
	ReadDirNames(path string) ([]string, error)
	WriteFile(path string, data []byte) error
	UpdateAt(path string, data []byte, off int64) error
	Rename(from, to string) error
	Remove(path string) error
	Mkdir(path string) error
	Rmdir(path string) error
}

// mountFS drives a real ficus.Mount.
type mountFS struct{ *ficus.Mount }

func (m mountFS) StatSize(path string) (uint64, error) {
	fi, err := m.Stat(path)
	return fi.Size, err
}

func (m mountFS) ReadDirNames(path string) ([]string, error) {
	ents, err := m.ReadDir(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
	}
	return out, nil
}

func (m mountFS) UpdateAt(path string, data []byte, off int64) error {
	f, err := m.Open(path, ficus.ReadWrite)
	if err != nil {
		return err
	}
	_, werr := f.WriteAt(data, off)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// vnodeFS drives a bare root vnode the way ficus.Mount does; the rig's
// logical layers are mounted through it because a ficus.Mount can only be
// made by a ficus.Cluster.
type vnodeFS struct{ root vnode.Vnode }

func (m vnodeFS) ReadFile(path string) ([]byte, error) {
	f, err := vnode.Walk(m.root, path)
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

func (m vnodeFS) StatSize(path string) (uint64, error) {
	v, err := vnode.Walk(m.root, path)
	if err != nil {
		return 0, err
	}
	a, err := v.Getattr()
	return a.Size, err
}

func (m vnodeFS) ReadDirNames(path string) ([]string, error) {
	v, err := vnode.Walk(m.root, path)
	if err != nil {
		return nil, err
	}
	ents, err := v.Readdir()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out, nil
}

func (m vnodeFS) WriteFile(path string, data []byte) error {
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

func (m vnodeFS) UpdateAt(path string, data []byte, off int64) error {
	f, err := vnode.Walk(m.root, path)
	if err != nil {
		return err
	}
	const rw = vnode.OpenRead | vnode.OpenWrite
	if err := f.Open(rw); err != nil {
		return err
	}
	_, werr := f.WriteAt(data, off)
	cerr := f.Close(rw)
	if werr != nil {
		return werr
	}
	return cerr
}

func (m vnodeFS) Rename(from, to string) error {
	sp, sname, err := vnode.WalkParent(m.root, from)
	if err != nil {
		return err
	}
	dp, dname, err := vnode.WalkParent(m.root, to)
	if err != nil {
		return err
	}
	return sp.Rename(sname, dp, dname)
}

func (m vnodeFS) Remove(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	return parent.Remove(name)
}

func (m vnodeFS) Mkdir(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	_, err = parent.Mkdir(name)
	return err
}

func (m vnodeFS) Rmdir(path string) error {
	parent, name, err := vnode.WalkParent(m.root, path)
	if err != nil {
		return err
	}
	return parent.Rmdir(name)
}

// executor issues generated ops against one or more mounts, times each
// call, and checks every result against the shadow model.
type executor struct {
	mounts []fsys // indexed by op.side
	m      *model
	clock  func() time.Duration // what the client calls are timed with
	wbuf   []byte               // contents being written
	xbuf   []byte               // contents expected back

	// before/after bracket the timed call when set (the rig opens and
	// closes the op's root span there).
	before func(o *op)
	after  func(o *op)
}

// run issues one op and returns how long the client calls took.  A call
// that errors, or a read whose bytes or names differ from the model, is a
// failure; the model advances only on success.
func (e *executor) run(o *op) (time.Duration, error) {
	fs := e.mounts[o.side]
	var data []byte
	switch o.kind {
	case opOverwrite, opCreate, opCreateRename:
		nb := (o.size + blockSize - 1) / blockSize
		if cap(e.wbuf) < o.size {
			e.wbuf = make([]byte, o.size)
		}
		data = e.wbuf[:o.size]
		for bi := 0; bi < nb; bi++ {
			end := (bi + 1) * blockSize
			if end > o.size {
				end = o.size
			}
			fillBlock(data[bi*blockSize:end], e.m.seed, o.id, o.ver, bi)
		}
	case opBlockUpdate:
		if cap(e.wbuf) < blockSize {
			e.wbuf = make([]byte, blockSize)
		}
		data = e.wbuf[:blockSize]
		fillBlock(data, e.m.seed, o.id, o.ver, o.block)
	}

	var (
		err   error
		got   []byte
		size  uint64
		names []string
	)
	if e.before != nil {
		e.before(o)
	}
	t0 := e.clock()
	switch o.kind {
	case opRead:
		got, err = fs.ReadFile(o.path)
	case opStat:
		size, err = fs.StatSize(o.path)
	case opReadDir:
		names, err = fs.ReadDirNames(o.path)
	case opOverwrite, opCreate:
		err = fs.WriteFile(o.path, data)
	case opBlockUpdate:
		err = fs.UpdateAt(o.path, data, int64(o.block)*blockSize)
	case opCreateRename:
		if err = fs.WriteFile(o.path, data); err == nil {
			err = fs.Rename(o.path, o.path2)
		}
	case opRename:
		err = fs.Rename(o.path, o.path2)
	case opRemove:
		err = fs.Remove(o.path)
	case opMkdir:
		err = fs.Mkdir(o.path)
	case opRmdir:
		err = fs.Rmdir(o.path)
	}
	d := e.clock() - t0
	if e.after != nil {
		e.after(o)
	}
	if err != nil {
		return d, fmt.Errorf("%s %s: %w", opKindName(o.kind), o.path, err)
	}

	switch o.kind {
	case opRead:
		e.xbuf = e.m.content(e.m.files[o.path], e.xbuf)
		if !bytes.Equal(got, e.xbuf) {
			return d, fmt.Errorf("read %s: %d bytes differ from the model's %d", o.path, len(got), len(e.xbuf))
		}
	case opStat:
		if want := uint64(e.m.files[o.path].size); size != want {
			return d, fmt.Errorf("stat %s: size %d, want %d", o.path, size, want)
		}
	case opReadDir:
		want := e.m.names(o.path)
		if len(names) != len(want) {
			return d, fmt.Errorf("readdir %s: %d names, want %d", o.path, len(names), len(want))
		}
		for i := range want {
			if names[i] != want[i] {
				return d, fmt.Errorf("readdir %s: name %q, want %q", o.path, names[i], want[i])
			}
		}
	}
	e.m.apply(o)
	return d, nil
}

func opKindName(k opKind) string {
	return [...]string{"read", "stat", "readdir", "overwrite", "blockupdate", "create",
		"rename", "remove", "mkdir", "rmdir", "create+rename"}[k]
}
