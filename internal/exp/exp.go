// Package exp implements the experiment harnesses that regenerate the
// paper's evaluation (DESIGN.md experiments E2, E3, E5, E6, E8 and E9).  Each
// harness is pure setup + measurement and returns structured rows: the
// assertions of exp_test.go and the timed rig of bench/ (bench/rig.go) drive
// the same code.
package exp

import (
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// ExpVol is the volume handle experiments use.
var ExpVol = ids.VolumeHandle{Allocator: 1, Volume: 1}

// BuildNullStack returns a UFS root wrapped in depth pass-through layers
// (E2: per-crossing cost).
func BuildNullStack(depth int) (vnode.Vnode, error) {
	fs, err := ufs.Mkfs(disk.New(16384), 4096, nil)
	if err != nil {
		return nil, err
	}
	var v vnode.VFS = ufsvn.New(fs)
	for i := 0; i < depth; i++ {
		v = vnode.NewNull(v)
	}
	return v.Root()
}

// PrepareFile creates /dir/file with contents under root and returns
// nothing; used to give every stack identical state before measurement.
func PrepareFile(root vnode.Vnode) error {
	d, err := root.Mkdir("dir")
	if err != nil {
		return err
	}
	f, err := d.Create("file", true)
	if err != nil {
		return err
	}
	return vnode.WriteFile(f, []byte("measurement payload"))
}

// TouchOp performs the E1/E2 measured operation: resolve dir/file and read
// its attributes.
func TouchOp(root vnode.Vnode) error {
	f, err := vnode.Walk(root, "dir/file")
	if err != nil {
		return err
	}
	_, err = f.Getattr()
	return err
}
