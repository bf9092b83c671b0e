package logical

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// benchLayer is one co-resident replica holding dirs × files small files,
// under a graft hook that never fires (as every cluster mount has one).
func benchLayer(b *testing.B, dirs, files int) vnode.Vnode {
	b.Helper()
	fs, err := ufs.Mkfs(disk.New(32768), 8192, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := physical.Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		b.Fatal(err)
	}
	hook := func(ids.VolumeHandle, vnode.Vnode) (vnode.Vnode, error) { return nil, vnode.EINVAL }
	root, _ := New(testVol, []Replica{{ID: 1, FS: p}}, Options{Graft: hook}).Root()
	for d := 0; d < dirs; d++ {
		dir, err := root.Mkdir(fmt.Sprintf("d%d", d))
		if err != nil {
			b.Fatal(err)
		}
		for f := 0; f < files; f++ {
			v, err := dir.Create(fmt.Sprintf("f%d", f), true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := v.WriteAt([]byte("contents"), 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	return root
}

// BenchmarkStatOneReplica is a walk and a Getattr where there is nothing to
// poll and nothing to pin between: what selection costs when it decides nothing.
func BenchmarkStatOneReplica(b *testing.B) {
	root := benchLayer(b, 8, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vnode.Walk(root, fmt.Sprintf("d%d/f%d", i%8, i%32))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Getattr(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadSessionOneReplica is open, stat, read, close on one replica.
func BenchmarkReadSessionOneReplica(b *testing.B) {
	root := benchLayer(b, 8, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vnode.Walk(root, fmt.Sprintf("d%d/f%d", i%8, i%32))
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Open(vnode.OpenRead); err != nil {
			b.Fatal(err)
		}
		if _, err := vnode.ReadFile(v); err != nil {
			b.Fatal(err)
		}
		if err := v.Close(vnode.OpenRead); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNamesCycleOneReplica is create, rename across directories, remove,
// with every other file's resolution cached: what invalidating a subtree of
// the resolution cache costs.
func BenchmarkNamesCycleOneReplica(b *testing.B) {
	root := benchLayer(b, 8, 128)
	for i := 0; i < 8*128; i++ {
		if _, err := vnode.Walk(root, fmt.Sprintf("d%d/f%d", i%8, i/8)); err != nil {
			b.Fatal(err)
		}
	}
	d0, _ := root.Lookup("d0")
	d1, _ := root.Lookup("d1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d0.Create("n", true); err != nil {
			b.Fatal(err)
		}
		if err := d0.Rename("n", d1, "m"); err != nil {
			b.Fatal(err)
		}
		if err := d1.Remove("m"); err != nil {
			b.Fatal(err)
		}
	}
}
