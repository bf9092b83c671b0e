// Package vntest provides a reusable conformance suite for vnode.VFS
// implementations.  The stackable-layers claim of the paper (Figure 1/2,
// §7) is precisely that every layer exports the same interface with the
// same semantics; running one suite against UFS, a null stack, the NFS
// transport, and the full Ficus stack is the executable form of that claim.
package vntest

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/vnode"
)

// Config tunes the suite for layer-specific quirks.
type Config struct {
	// MaxName is the longest name the layer accepts (the Ficus logical
	// layer shrinks this, paper §2.3 fn2).
	MaxName int
}

// Run exercises a fresh VFS produced by mk against the conformance suite.
// mk is called once per subtest so tests are independent.
func Run(t *testing.T, cfg Config, mk func(t *testing.T) vnode.VFS) {
	t.Helper()
	sub := func(name string, fn func(t *testing.T, root vnode.Vnode)) {
		t.Run(name, func(t *testing.T) {
			fs := mk(t)
			root, err := fs.Root()
			if err != nil {
				t.Fatalf("Root: %v", err)
			}
			fn(t, root)
		})
	}

	sub("RootIsDir", func(t *testing.T, root vnode.Vnode) {
		a, err := root.Getattr()
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != vnode.VDir {
			t.Fatalf("root type %v", a.Type)
		}
	})

	sub("CreateWriteRead", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("file", true)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte("stackable layers")
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %q", got)
		}
		a, err := f.Getattr()
		if err != nil {
			t.Fatal(err)
		}
		if a.Size != uint64(len(data)) || a.Type != vnode.VReg {
			t.Fatalf("attr %+v", a)
		}
	})

	sub("LookupAfterCreate", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		g, err := root.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		fa, _ := f.Getattr()
		ga, _ := g.Getattr()
		if fa.FileID != ga.FileID {
			t.Fatalf("different identities: %q vs %q", fa.FileID, ga.FileID)
		}
		if f.Handle() != g.Handle() {
			t.Fatalf("different handles: %q vs %q", f.Handle(), g.Handle())
		}
	})

	sub("CreateExclusive", func(t *testing.T, root vnode.Vnode) {
		if _, err := root.Create("f", true); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Create("f", true); vnode.AsErrno(err) != vnode.EEXIST {
			t.Fatalf("excl create over existing: %v", err)
		}
		if _, err := root.Create("f", false); err != nil {
			t.Fatalf("non-excl create over existing: %v", err)
		}
	})

	sub("LookupMissing", func(t *testing.T, root vnode.Vnode) {
		if _, err := root.Lookup("ghost"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("err = %v, want ENOENT", err)
		}
	})

	sub("MkdirAndNesting", func(t *testing.T, root vnode.Vnode) {
		d, err := root.Mkdir("d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Mkdir("e"); err != nil {
			t.Fatal(err)
		}
		f, err := vnode.Walk(root, "d/e")
		if err != nil {
			t.Fatal(err)
		}
		a, _ := f.Getattr()
		if a.Type != vnode.VDir {
			t.Fatalf("d/e type %v", a.Type)
		}
	})

	sub("ReaddirListsCreated", func(t *testing.T, root vnode.Vnode) {
		for i := 0; i < 5; i++ {
			if _, err := root.Create(fmt.Sprintf("f%d", i), true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := root.Mkdir("d"); err != nil {
			t.Fatal(err)
		}
		ents, err := root.Readdir()
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]vnode.Dirent{}
		for _, e := range ents {
			byName[e.Name] = e
		}
		if len(byName) != 6 {
			t.Fatalf("%d entries: %v", len(byName), ents)
		}
		if byName["d"].Type != vnode.VDir || byName["f0"].Type != vnode.VReg {
			t.Fatalf("types wrong: %v", ents)
		}
	})

	sub("RemoveFile", func(t *testing.T, root vnode.Vnode) {
		if _, err := root.Create("f", true); err != nil {
			t.Fatal(err)
		}
		if err := root.Remove("f"); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Lookup("f"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("after remove: %v", err)
		}
		if err := root.Remove("f"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("double remove: %v", err)
		}
	})

	sub("RmdirSemantics", func(t *testing.T, root vnode.Vnode) {
		d, err := root.Mkdir("d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Create("f", true); err != nil {
			t.Fatal(err)
		}
		if err := root.Rmdir("d"); vnode.AsErrno(err) != vnode.ENOTEMPTY {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		if err := d.Remove("f"); err != nil {
			t.Fatal(err)
		}
		if err := root.Rmdir("d"); err != nil {
			t.Fatalf("rmdir empty: %v", err)
		}
		if _, err := root.Lookup("d"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("after rmdir: %v", err)
		}
	})

	sub("RenameWithinDir", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("a", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := root.Rename("a", root, "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Lookup("a"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("a survived: %v", err)
		}
		g, err := root.Lookup("b")
		if err != nil {
			t.Fatal(err)
		}
		got, err := vnode.ReadFile(g)
		if err != nil || string(got) != "payload" {
			t.Fatalf("b contents %q, %v", got, err)
		}
	})

	sub("RenameAcrossDirs", func(t *testing.T, root vnode.Vnode) {
		d1, err := root.Mkdir("d1")
		if err != nil {
			t.Fatal(err)
		}
		d2, err := root.Mkdir("d2")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d1.Create("f", true); err != nil {
			t.Fatal(err)
		}
		if err := d1.Rename("f", d2, "g"); err != nil {
			t.Fatal(err)
		}
		if _, err := d2.Lookup("g"); err != nil {
			t.Fatalf("d2/g missing: %v", err)
		}
		if _, err := d1.Lookup("f"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatalf("d1/f survived: %v", err)
		}
	})

	sub("TruncateExtendAndShrink", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(4); err != nil {
			t.Fatal(err)
		}
		got, err := vnode.ReadFile(f)
		if err != nil || string(got) != "0123" {
			t.Fatalf("after shrink: %q, %v", got, err)
		}
		if err := f.Truncate(8); err != nil {
			t.Fatal(err)
		}
		got, err = vnode.ReadFile(f)
		if err != nil || !bytes.Equal(got, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
			t.Fatalf("after grow: %q, %v", got, err)
		}
	})

	sub("WriteAtOffsetExtends", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("tail"), 100); err != nil {
			t.Fatal(err)
		}
		a, _ := f.Getattr()
		if a.Size != 104 {
			t.Fatalf("size %d, want 104", a.Size)
		}
		got := make([]byte, 4)
		if _, err := f.ReadAt(got, 100); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(got) != "tail" {
			t.Fatalf("read %q", got)
		}
	})

	sub("SymlinkRoundTrip", func(t *testing.T, root vnode.Vnode) {
		if err := root.Symlink("ln", "some/target"); err != nil {
			t.Fatal(err)
		}
		l, err := root.Lookup("ln")
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Readlink()
		if err != nil || got != "some/target" {
			t.Fatalf("readlink %q, %v", got, err)
		}
		a, _ := l.Getattr()
		if a.Type != vnode.VLnk {
			t.Fatalf("type %v", a.Type)
		}
	})

	sub("OpenCloseAccepted", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Open(vnode.OpenRead | vnode.OpenWrite); err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := f.Close(vnode.OpenRead | vnode.OpenWrite); err != nil {
			t.Fatalf("close: %v", err)
		}
	})

	sub("SetattrSize", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		sz := uint64(3)
		if err := f.Setattr(vnode.SetAttr{Size: &sz}); err != nil {
			t.Fatal(err)
		}
		a, _ := f.Getattr()
		if a.Size != 3 {
			t.Fatalf("size %d", a.Size)
		}
	})

	sub("FsyncAndAccess", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Access(0o4); err != nil {
			t.Fatal(err)
		}
	})

	sub("DataOpsOnDirFail", func(t *testing.T, root vnode.Vnode) {
		d, err := root.Mkdir("d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.WriteAt([]byte("x"), 0); err == nil {
			t.Fatal("write to directory succeeded")
		}
		if err := d.Truncate(0); err == nil {
			t.Fatal("truncate of directory succeeded")
		}
	})

	sub("DirOpsOnFileFail", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Lookup("x"); vnode.AsErrno(err) != vnode.ENOTDIR {
			t.Fatalf("lookup in file: %v", err)
		}
		if _, err := f.Create("x", true); vnode.AsErrno(err) != vnode.ENOTDIR {
			t.Fatalf("create in file: %v", err)
		}
	})

	sub("HardLink", func(t *testing.T, root vnode.Vnode) {
		f, err := root.Create("a", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("shared")); err != nil {
			t.Fatal(err)
		}
		if err := root.Link("b", f); err != nil {
			t.Fatal(err)
		}
		b, err := root.Lookup("b")
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Remove("a"); err != nil {
			t.Fatal(err)
		}
		got, err := vnode.ReadFile(b)
		if err != nil || string(got) != "shared" {
			t.Fatalf("after unlink a: %q, %v", got, err)
		}
	})

	// A vnode of a second mount of the same stack is a peer from another
	// layer instance: Link and Rename refuse it with EXDEV, on either side,
	// and neither mount changes.
	sub("ForeignPeerIsEXDEV", func(t *testing.T, root vnode.Vnode) {
		other, err := mk(t).Root()
		if err != nil {
			t.Fatalf("second Root: %v", err)
		}
		f, err := root.Create("a", true)
		if err != nil {
			t.Fatal(err)
		}
		od, err := other.Mkdir("od")
		if err != nil {
			t.Fatal(err)
		}
		of, err := od.Create("b", true)
		if err != nil {
			t.Fatal(err)
		}
		before := [][]string{names(t, root), names(t, other), names(t, od)}
		for what, err := range map[string]error{
			"link to a foreign file":     root.Link("l", of),
			"link from a foreign dir":    od.Link("l", f),
			"rename into a foreign dir":  root.Rename("a", od, "moved"),
			"rename from a foreign dir":  od.Rename("b", root, "moved"),
			"rename into a foreign root": root.Rename("a", other, "a"),
		} {
			if vnode.AsErrno(err) != vnode.EXDEV {
				t.Errorf("%s: %v, want EXDEV", what, err)
			}
		}
		after := [][]string{names(t, root), names(t, other), names(t, od)}
		if fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("a refused peer changed the mounts: %v, then %v", before, after)
		}
	})

	if cfg.MaxName > 0 {
		sub("NameLengthLimit", func(t *testing.T, root vnode.Vnode) {
			ok := make([]byte, cfg.MaxName)
			for i := range ok {
				ok[i] = 'n'
			}
			if _, err := root.Create(string(ok), true); err != nil {
				t.Fatalf("create max-len name: %v", err)
			}
			long := string(ok) + "x"
			if _, err := root.Create(long, true); vnode.AsErrno(err) != vnode.ENAMETOOLONG {
				t.Fatalf("over-long name: %v", err)
			}
		})
	}
}

// names lists dir's entries, sorted.
func names(t *testing.T, dir vnode.Vnode) []string {
	t.Helper()
	ents, err := dir.Readdir()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
