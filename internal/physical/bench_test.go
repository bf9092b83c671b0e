package physical

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

func benchLayer(b *testing.B) *Layer {
	b.Helper()
	fs, err := ufs.Mkfs(disk.New(65536), 16384, nil)
	if err != nil {
		b.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkCreate measures a create into a directory of at most 64 entries,
// whatever b.N: a fresh subdirectory every 64 creates and a fresh store every
// 4096 (three inodes a file, 16 384 to a store), both outside the timer.  In
// one directory on one store each create rewrote an O(b.N) contents file and
// a long enough run ran out of inodes.
func BenchmarkCreate(b *testing.B) {
	var root, dir vnode.Vnode
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			if i%4096 == 0 {
				root, _ = benchLayer(b).Root()
			}
			var err error
			if dir, err = root.Mkdir(fmt.Sprintf("d%02d", i%4096/64)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := dir.Create(fmt.Sprintf("f%08d", i), true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteWithVVBump(b *testing.B) {
	l := benchLayer(b)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%16)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupWarm(b *testing.B) {
	l := benchLayer(b)
	root, _ := l.Root()
	for i := 0; i < 50; i++ {
		if _, err := root.Create(fmt.Sprintf("f%03d", i), true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("f025"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeepDir makes /a/b/c with n files in c and returns c, a directory whose
// handle is three containers below the root.
func benchDeepDir(b *testing.B, n int) (*Layer, vnode.Vnode) {
	b.Helper()
	l := benchLayer(b)
	dir, _ := l.Root()
	for _, name := range []string{"a", "b", "c"} {
		var err error
		if dir, err = dir.Mkdir(name); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := dir.Create(fmt.Sprintf("f%04d", i), true); err != nil {
			b.Fatal(err)
		}
	}
	return l, dir
}

// BenchmarkGetattrDirWarm is the Getattr of a directory just used: what the
// NFS server pays to re-validate the subject of every request (Resolve).
func BenchmarkGetattrDirWarm(b *testing.B) {
	for _, n := range []int{32, 512} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			_, dir := benchDeepDir(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dir.Getattr(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveWarm turns a depth-3 directory handle back into a vnode.
func BenchmarkResolveWarm(b *testing.B) {
	for _, n := range []int{32, 512} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			l, dir := benchDeepDir(b, n)
			h := dir.Handle()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Resolve(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApplyDirMerge(b *testing.B) {
	// Merge a 64-entry remote state into a replica that already has it:
	// the steady-state (quiescent) reconciliation cost per directory.
	l := benchLayer(b)
	root, _ := l.Root()
	for i := 0; i < 64; i++ {
		if _, err := root.Create(fmt.Sprintf("f%03d", i), true); err != nil {
			b.Fatal(err)
		}
	}
	ds, err := l.DirEntries(RootPath())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ApplyDirMerge(RootPath(), ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstallFileVersion(b *testing.B) {
	l := benchLayer(b)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	fid := mustFidB(b, f)
	data := make([]byte, 8*4096)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		b.Fatal(err)
	}
	vvv := st.Aux.VV
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vvv = vvv.Bump(2)
		if err := l.InstallFileVersion(RootPath(), fid, KFile, data, vvv, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustFidB(b *testing.B, v vnode.Vnode) ids.FileID {
	b.Helper()
	a, err := v.Getattr()
	if err != nil {
		b.Fatal(err)
	}
	fid, err := ids.ParseFileID(a.FileID)
	if err != nil {
		b.Fatal(err)
	}
	return fid
}
