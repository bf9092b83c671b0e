package physical

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
)

func TestParseHandleRoundTrip(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d, _ := root.Mkdir("d")
	f, _ := d.Create("f", true)
	ln := mustSymlink(t, d, "ln", "target")

	for _, v := range []vnode.Vnode{root, d, f, ln} {
		kind, dirPath, fid, err := ParseHandle(v.Handle())
		if err != nil {
			t.Fatalf("ParseHandle(%q): %v", v.Handle(), err)
		}
		a, _ := v.Getattr()
		wantFid, _ := ids.ParseFileID(a.FileID)
		if fid != wantFid {
			t.Fatalf("fid %v, want %v", fid, wantFid)
		}
		switch a.Type {
		case vnode.VDir:
			if !kind.IsDir() {
				t.Fatalf("kind %v for dir", kind)
			}
		case vnode.VLnk:
			if kind != KSymlink {
				t.Fatalf("kind %v for symlink", kind)
			}
		default:
			if kind != KFile {
				t.Fatalf("kind %v for file", kind)
			}
		}
		_ = dirPath
	}
	for _, bad := range []string{"", "x", "q|000000010000000000000001", "f|zz"} {
		if _, _, _, err := ParseHandle(bad); err == nil {
			t.Errorf("ParseHandle(%q) accepted", bad)
		}
	}
}

func mustSymlink(t *testing.T, dir vnode.Vnode, name, target string) vnode.Vnode {
	t.Helper()
	if err := dir.Symlink(name, target); err != nil {
		t.Fatal(err)
	}
	v, err := dir.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEvictAndStoresFile(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("data"))
	fid := mustFid(t, f)
	if !l.StoresFile(RootPath(), fid) {
		t.Fatal("StoresFile false for stored file")
	}
	if err := l.EvictFileStorage(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	if l.StoresFile(RootPath(), fid) {
		t.Fatal("StoresFile true after eviction")
	}
	// The entry survives; data access reports not-stored.
	ents, _ := root.Readdir()
	if len(ents) != 1 {
		t.Fatalf("entry lost: %v", ents)
	}
	if _, err := root.Lookup("f"); vnode.AsErrno(err) != vnode.ENOSTOR {
		t.Fatalf("lookup: %v", err)
	}
	// Double evict reports not stored; unknown fid reports ENOENT.
	if err := l.EvictFileStorage(RootPath(), fid); !errors.Is(err, ErrNotStored) {
		t.Fatalf("double evict: %v", err)
	}
	ghost := ids.FileID{Issuer: 7, Seq: 777}
	if err := l.EvictFileStorage(RootPath(), ghost); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("ghost evict: %v", err)
	}
	// Re-install (as reconciliation would) restores storage.
	if err := l.InstallFileVersion(RootPath(), fid, KFile, []byte("data"), vv.Vector{}.Bump(2), 1); err != nil {
		t.Fatal(err)
	}
	if !l.StoresFile(RootPath(), fid) {
		t.Fatal("not restored")
	}
	checkFicusClean(t, l)
}

// TestClearConflictsFor: a logged conflict leaves the log when a version
// committed over its file dominates the remote history it was logged against
// (a resolution), and only then.  Both files were created here, then updated
// here and, concurrently, at replica 2; a's resolution is installed, and b
// gets a newer version from replica 3 that is still concurrent with 2's.
func TestClearConflictsFor(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	var fids []ids.FileID
	var locals []vv.Vector
	for _, name := range []string{"a", "b"} {
		f, err := root.Create(name, true)
		if err != nil {
			t.Fatal(err)
		}
		fid := mustFid(t, f)
		created, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("local edit"), 0); err != nil {
			t.Fatal(err)
		}
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		l.ReportConflict(Conflict{File: fid, Dir: RootPath(), LocalVV: st.Aux.VV, RemoteVV: created.Aux.VV.Bump(2)})
		fids, locals = append(fids, fid), append(locals, st.Aux.VV)
	}
	resolution := vv.Merge(locals[0], l.Conflicts()[0].RemoteVV).Bump(1)
	if err := l.InstallFileVersion(RootPath(), fids[0], KFile, []byte("resolved"), resolution, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallFileVersion(RootPath(), fids[1], KFile, []byte("third"), locals[1].Bump(3), 1); err != nil {
		t.Fatal(err)
	}
	got := l.Conflicts()
	if len(got) != 1 || got[0].File != fids[1] {
		t.Fatalf("%+v", got)
	}
}

func TestSetattrPaths(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("0123456789"))
	mode := uint16(0o640)
	size := uint64(4)
	if err := f.Setattr(vnode.SetAttr{Mode: &mode, Size: &size}); err != nil {
		t.Fatal(err)
	}
	a, _ := f.Getattr()
	if a.Size != 4 || a.Mode != 0o640 {
		t.Fatalf("%+v", a)
	}
	// Setattr on a directory ignores mode gracefully.
	d, _ := root.Mkdir("d")
	if err := d.Setattr(vnode.SetAttr{Mode: &mode}); err != nil {
		t.Fatal(err)
	}
	// A setattr mutation bumps the version vector.
	st, _ := l.FileInfo(RootPath(), mustFid(t, f))
	before := st.Aux.VV.Total()
	if err := f.Setattr(vnode.SetAttr{Mode: &mode}); err != nil {
		t.Fatal(err)
	}
	st, _ = l.FileInfo(RootPath(), mustFid(t, f))
	if st.Aux.VV.Total() != before+1 {
		t.Fatalf("vv %d -> %d", before, st.Aux.VV.Total())
	}
}

func TestMkGraftSurface(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	target := ids.VolumeHandle{Allocator: 9, Volume: 9}
	gp, err := root.(interface {
		MkGraft(string, ids.VolumeHandle) (vnode.Vnode, error)
	}).MkGraft("mnt", target)
	if err != nil {
		t.Fatal(err)
	}
	a, err := gp.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != vnode.VDir || a.GraftVol != target.String() {
		t.Fatalf("%+v", a)
	}
	// Kind survives the aux file and the Kind stringer works.
	gpFid, _ := ids.ParseFileID(a.FileID)
	st, err := l.FileInfo(RootPath(), gpFid)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aux.Type != KGraft || st.Aux.GraftVol != target {
		t.Fatalf("%+v", st.Aux)
	}
	for k, want := range map[Kind]string{KFile: "file", KDir: "dir", KSymlink: "symlink", KGraft: "graft"} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind renders empty")
	}
	if l.Store() == nil {
		t.Error("Store accessor")
	}
	if err := l.Sync(); err != nil {
		t.Error(err)
	}
}
