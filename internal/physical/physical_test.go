package physical

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
	"repro/internal/vv"
)

var testVol = ids.VolumeHandle{Allocator: 10, Volume: 1}

func newLayer(t *testing.T, replica ids.ReplicaID) (*Layer, *disk.Device) {
	t.Helper()
	dev := disk.New(8192)
	fs, err := ufs.Mkfs(dev, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, replica)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

func TestConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{SupportsHardLinks: true, MaxName: SubstrateMaxName - 1},
		func(t *testing.T) vnode.VFS {
			l, _ := newLayer(t, 1)
			return l
		})
}

func TestFormatAndReopen(t *testing.T) {
	dev := disk.New(8192)
	fs, err := ufs.Mkfs(dev, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := ufsvn.New(fs)
	l, err := Format(store, testVol, 3)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := l.Root()
	f, err := root.Create("keep", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	id1, err := l.NextID()
	if err != nil {
		t.Fatal(err)
	}

	// Remount from the same device.
	fs2, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(ufsvn.New(fs2))
	if err != nil {
		t.Fatal(err)
	}
	if l2.Volume() != testVol || l2.Replica() != 3 {
		t.Fatalf("identity lost: %v replica %d", l2.Volume(), l2.Replica())
	}
	root2, _ := l2.Root()
	g, err := root2.Lookup("keep")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(g)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("%q, %v", got, err)
	}
	// Sequencer must resume past previously issued ids.
	id2, err := l2.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if !eidLess(id1, id2) {
		t.Fatalf("sequencer reissued: %v then %v", id1, id2)
	}
	if l2.VolumeReplica().Replica != 3 {
		t.Fatal("volume replica handle wrong")
	}
}

func TestOpenOnNonFicusStoreFails(t *testing.T) {
	fs, _ := ufs.Mkfs(disk.New(1024), 256, nil)
	if _, err := Open(ufsvn.New(fs)); !errors.Is(err, ErrNotFicus) {
		t.Fatalf("err = %v, want ErrNotFicus", err)
	}
}

func TestVersionVectorBumpsOnMutation(t *testing.T) {
	l, _ := newLayer(t, 7)
	root, _ := l.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.FileInfo(RootPath(), mustFid(t, f))
	if err != nil {
		t.Fatal(err)
	}
	v0 := st.Aux.VV.Counter(7)
	if v0 == 0 {
		t.Fatal("create did not bump the creating replica's counter")
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	st, _ = l.FileInfo(RootPath(), mustFid(t, f))
	if got := st.Aux.VV.Counter(7); got != v0+2 {
		t.Fatalf("vv counter %d, want %d", got, v0+2)
	}
	// Directory VV bumps on entry changes.
	ds, err := l.DirEntries(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	dirV := ds.VV.Counter(7)
	if dirV == 0 {
		t.Fatal("directory vv never bumped")
	}
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	ds, _ = l.DirEntries(RootPath())
	if ds.VV.Counter(7) != dirV+1 {
		t.Fatalf("remove did not bump dir vv: %d -> %d", dirV, ds.VV.Counter(7))
	}
}

func mustFid(t *testing.T, v vnode.Vnode) ids.FileID {
	t.Helper()
	a, err := v.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	fid, err := ids.ParseFileID(a.FileID)
	if err != nil {
		t.Fatal(err)
	}
	return fid
}

func TestRemoveKeepsTombstone(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	ds, err := l.DirEntries(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Entries) != 1 || ds.Entries[0].Live() {
		t.Fatalf("tombstone missing: %+v", ds.Entries)
	}
	// Client view hides the tombstone.
	ents, _ := root.Readdir()
	if len(ents) != 0 {
		t.Fatalf("tombstone visible: %v", ents)
	}
	// Storage reclaimed.
	if _, err := l.FileInfo(RootPath(), ds.Entries[0].Child); !errors.Is(err, ErrNotStored) {
		t.Fatalf("storage not reclaimed: %v", err)
	}
}

func TestHardLinkSharesStorage(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("a", true)
	vnode.WriteFile(f, []byte("shared"))
	if err := root.Link("b", f); err != nil {
		t.Fatal(err)
	}
	st, err := l.FileInfo(RootPath(), mustFid(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if st.Aux.Nlink != 2 {
		t.Fatalf("nlink %d", st.Aux.Nlink)
	}
	if err := root.Remove("a"); err != nil {
		t.Fatal(err)
	}
	b, err := root.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(b)
	if err != nil || string(got) != "shared" {
		t.Fatalf("%q, %v", got, err)
	}
	if err := root.Remove("b"); err != nil {
		t.Fatal(err)
	}
	ds, _ := l.DirEntries(RootPath())
	for _, e := range ds.Entries {
		if e.Live() {
			t.Fatalf("live entry after removing both names: %+v", e)
		}
	}
}

func TestCrossDirectoryLinkRejected(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d, _ := root.Mkdir("d")
	f, _ := root.Create("f", true)
	if err := d.Link("x", f); vnode.AsErrno(err) != vnode.EXDEV {
		t.Fatalf("cross-dir link: %v", err)
	}
}

func TestRenameAcrossDirsMovesStorage(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d1, _ := root.Mkdir("d1")
	d2, _ := root.Mkdir("d2")
	f, _ := d1.Create("f", true)
	vnode.WriteFile(f, []byte("moving"))
	if err := d1.Rename("f", d2, "g"); err != nil {
		t.Fatal(err)
	}
	g, err := d2.Lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(g)
	if err != nil || string(got) != "moving" {
		t.Fatalf("%q, %v", got, err)
	}
	// Subdirectory rename moves the container too.
	sub, _ := d1.Mkdir("sub")
	if _, err := sub.Create("inner", true); err != nil {
		t.Fatal(err)
	}
	if err := d1.Rename("sub", d2, "sub2"); err != nil {
		t.Fatal(err)
	}
	inner, err := vnode.Walk(root, "d2/sub2/inner")
	if err != nil {
		t.Fatalf("walk after dir rename: %v", err)
	}
	_ = inner
}

// TestRenameAwayOneOfTwoNames: a file with two names in a directory, one of
// them renamed into another directory.  The source used to lose its copy (all
// three members moved away, the remaining name answered ENOSTOR); now each
// directory ends with its own copy — no member shared between the two
// containers — under a link count of its own names, and an update through one
// name leaves the other copy and its vector alone.
func TestRenameAwayOneOfTwoNames(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d, _ := root.Mkdir("d")
	f, _ := root.Create("a", true)
	vnode.WriteFile(f, []byte("two names"))
	fid := mustFid(t, f)
	if err := root.Link("b", f); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("b", d, "c"); err != nil {
		t.Fatal(err)
	}
	dPath := append(RootPath(), mustFid(t, d))
	for _, at := range []struct {
		dir  vnode.Vnode
		path []ids.FileID
		name string
	}{{root, RootPath(), "a"}, {d, dPath, "c"}} {
		v, err := at.dir.Lookup(at.name)
		if err != nil {
			t.Fatalf("%s: %v", at.name, err)
		}
		if got, err := vnode.ReadFile(v); err != nil || string(got) != "two names" {
			t.Fatalf("%s reads %q, %v", at.name, got, err)
		}
		if st, err := l.FileInfo(at.path, fid); err != nil || st.Aux.Nlink != 1 {
			t.Fatalf("%s: link count %d, %v; want 1", at.name, st.Aux.Nlink, err)
		}
	}
	checkStoreMembers(t, l, "after the rename") // nothing linked from two containers
	before, _ := l.FileInfo(RootPath(), fid)
	c, _ := d.Lookup("c")
	if err := vnode.WriteFile(c, []byte("through c")); err != nil {
		t.Fatal(err)
	}
	a, _ := root.Lookup("a")
	if got, _ := vnode.ReadFile(a); string(got) != "two names" {
		t.Fatalf("a write through c changed a: %q", got)
	}
	if after, _ := l.FileInfo(RootPath(), fid); !after.Aux.VV.Equal(before.Aux.VV) {
		t.Fatalf("a write through c moved a's vector %s -> %s", before.Aux.VV, after.Aux.VV)
	}
	if probs, err := l.Check(); err != nil || len(probs) != 0 {
		t.Fatalf("Check: %v %v", probs, err)
	}
}

// TestLinkCountIsRecounted: Link used to add one to the stored link count
// before the entry committed and Remove to subtract one, so a count a crash
// had left wrong stayed wrong.  Both now recount the live names, and so does
// recovery at mount.
func TestLinkCountIsRecounted(t *testing.T) {
	l, dev := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("a", true)
	fid := mustFid(t, f)
	skew := func(l *Layer, n uint32) {
		t.Helper()
		cont, _ := l.rootContainer()
		aux, err := readAuxFile(cont, prefixAux+fid.String())
		if err != nil {
			t.Fatal(err)
		}
		aux.Nlink = n
		if err := writeAuxFile(atomicReplace, cont, prefixAux+fid.String(), &aux, nil); err != nil {
			t.Fatal(err)
		}
	}
	nlink := func(l *Layer) uint32 {
		t.Helper()
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		return st.Aux.Nlink
	}
	skew(l, 5) // as a crash between the old Link's two writes left it
	if err := root.Link("b", f); err != nil {
		t.Fatal(err)
	}
	if got := nlink(l); got != 2 {
		t.Fatalf("after Link over a skewed count: %d, want 2", got)
	}
	skew(l, 7)
	if err := root.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := nlink(l); got != 1 {
		t.Fatalf("after Remove over a skewed count: %d, want 1", got)
	}
	skew(l, 3)
	fs2, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(ufsvn.New(fs2))
	if err != nil {
		t.Fatal(err)
	}
	if got := nlink(l2); got != 1 {
		t.Fatalf("after recovery over a skewed count: %d, want 1", got)
	}
}

func TestOpenEncodingRoundTrip(t *testing.T) {
	name := "some-file.txt"
	s := EncodeOpenLookup(true, vnode.OpenRead|vnode.OpenWrite, testVol, name)
	if !IsEncodedLookup(s) {
		t.Fatal("not recognized")
	}
	open, flags, issuer, got, err := DecodeOpenLookup(s)
	if err != nil || !open || flags != (vnode.OpenRead|vnode.OpenWrite) || issuer != testVol || got != name {
		t.Fatalf("decode: %v %v %v %q %v", open, flags, issuer, got, err)
	}
	s2 := EncodeOpenLookup(false, vnode.OpenRead, testVol, name)
	open, _, _, _, err = DecodeOpenLookup(s2)
	if err != nil || open {
		t.Fatalf("close decode: %v %v", open, err)
	}
	// Fixed overhead is the same for open and close, and the surviving
	// name budget is "about 200" (paper §2.3 fn2).
	if len(s2)-len(name) != EncOverhead || len(s)-len(name) != EncOverhead {
		t.Fatalf("overhead %d/%d, want %d", len(s)-len(name), len(s2)-len(name), EncOverhead)
	}
	if MaxEncodedName < 190 || MaxEncodedName > 220 {
		t.Fatalf("MaxEncodedName = %d, want about 200", MaxEncodedName)
	}
	if _, _, _, _, err := DecodeOpenLookup("plain-name"); err == nil {
		t.Fatal("decode of plain name succeeded")
	}
	if _, _, _, _, err := DecodeOpenLookup(encPrefix + "bogus"); err == nil {
		t.Fatal("decode of garbage succeeded")
	}
}

func TestOpenOverLookupCountsOpens(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	fid := mustFid(t, f)
	if l.OpenCount(fid) != 0 {
		t.Fatal("fresh file has opens")
	}
	// Open via encoded lookup (as the logical layer does through NFS).
	v, err := root.Lookup(EncodeOpenLookup(true, vnode.OpenRead, testVol, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Handle() != f.Handle() {
		t.Fatal("encoded lookup returned a different vnode")
	}
	if l.OpenCount(fid) != 1 || l.OpenFiles() != 1 {
		t.Fatalf("open count %d", l.OpenCount(fid))
	}
	if _, err := root.Lookup(EncodeOpenLookup(false, vnode.OpenRead, testVol, "f")); err != nil {
		t.Fatal(err)
	}
	if l.OpenCount(fid) != 0 {
		t.Fatalf("close did not decrement: %d", l.OpenCount(fid))
	}
	if l.TotalOpens() != 1 {
		t.Fatalf("total opens %d", l.TotalOpens())
	}
	// Direct open/close (co-resident case) hits the same bookkeeping.
	f.Open(vnode.OpenWrite)
	if l.OpenCount(fid) != 1 {
		t.Fatal("direct open not counted")
	}
	f.Close(vnode.OpenWrite)
	if l.OpenCount(fid) != 0 {
		t.Fatal("direct close not counted")
	}
}

func TestReservedNamesRejected(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	if _, err := root.Create(encPrefix+"smuggled", true); vnode.AsErrno(err) != vnode.EINVAL {
		t.Fatalf("reserved prefix accepted: %v", err)
	}
}

func TestInstallFileVersionShadowCommit(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("old version"))
	fid := mustFid(t, f)
	// A remote version that has seen our updates and advanced: dominates.
	st0, _ := l.FileInfo(RootPath(), fid)
	newVV := st0.Aux.VV.Clone().Bump(2).Bump(2)
	if err := l.InstallFileVersion(RootPath(), fid, KFile, []byte("new version"), newVV, 1); err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(f)
	if err != nil || string(got) != "new version" {
		t.Fatalf("%q, %v", got, err)
	}
	st, _ := l.FileInfo(RootPath(), fid)
	if !st.Aux.VV.Equal(newVV) {
		t.Fatalf("vv %v, want %v", st.Aux.VV, newVV)
	}
}

func TestInstallCreatesMissingStorage(t *testing.T) {
	l, _ := newLayer(t, 1)
	fid := ids.FileID{Issuer: 9, Seq: 77}
	if err := l.InstallFileVersion(RootPath(), fid, KFile, []byte("fresh"), vv.New().Bump(9), 1); err != nil {
		t.Fatal(err)
	}
	data, st, err := l.FileData(RootPath(), fid)
	if err != nil || string(data) != "fresh" || st.Aux.Type != KFile {
		t.Fatalf("%q, %+v, %v", data, st, err)
	}
}

// TestShadowCommitCrashSafety drives the device to crash after every
// possible write count during an install and verifies the §3.2 fn5
// invariant: after recovery the replica holds either the complete old or
// the complete new version — never a mix, never nothing.  After every
// crash point the recovered volume must also pass the Ficus-level Check
// (no shadow litter, no orphaned storage) and the UFS fsck.
func TestShadowCommitCrashSafety(t *testing.T) {
	oldData := bytes.Repeat([]byte("OLD!"), 2048) // 2 blocks
	newData := bytes.Repeat([]byte("new?"), 3072) // 3 blocks

	setup := func() (*disk.Device, *Layer, ids.FileID) {
		dev := disk.New(8192)
		fs, err := ufs.Mkfs(dev, 2048, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Format(ufsvn.New(fs), testVol, 1)
		if err != nil {
			t.Fatal(err)
		}
		root, _ := l.Root()
		f, _ := root.Create("f", true)
		if err := vnode.WriteFile(f, oldData); err != nil {
			t.Fatal(err)
		}
		return dev, l, mustFid(t, f)
	}

	// Dry run: count the device writes a full install takes, so the sweep
	// below covers every crash offset through the final write (crashAfter ==
	// totalWrites is the no-crash control).
	// The propagated version has seen the local updates and advanced at
	// replica 2, so it dominates the stored vector.
	propagatedVV := func(l *Layer, fid ids.FileID) vv.Vector {
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		return st.Aux.VV.Clone().Bump(2)
	}

	dev, l, fid := setup()
	before := dev.Stats().Writes
	if err := l.InstallFileVersion(RootPath(), fid, KFile, newData, propagatedVV(l, fid), 1); err != nil {
		t.Fatal(err)
	}
	totalWrites := int(dev.Stats().Writes - before)
	if totalWrites < 4 {
		t.Fatalf("install took only %d writes; fault sweep would be vacuous", totalWrites)
	}

	for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
		dev, l, fid := setup()
		newVV := propagatedVV(l, fid)
		dev.FaultAfterWrites(crashAfter)
		installErr := l.InstallFileVersion(RootPath(), fid, KFile, newData, newVV, 1)
		crashed := dev.Faulted()
		dev.ClearFault()

		// Reboot: fresh mount + recovery.
		fs2, err := ufs.Mount(dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Open(ufsvn.New(fs2))
		if err != nil {
			t.Fatalf("crashAfter=%d: recovery mount: %v", crashAfter, err)
		}
		data, _, err := l2.FileData(RootPath(), fid)
		if err != nil {
			t.Fatalf("crashAfter=%d: file lost: %v", crashAfter, err)
		}
		oldOK := bytes.Equal(data, oldData)
		newOK := bytes.Equal(data, newData)
		if !oldOK && !newOK {
			t.Fatalf("crashAfter=%d (crashed=%v, installErr=%v): torn file: %d bytes", crashAfter, crashed, installErr, len(data))
		}
		if installErr == nil && !crashed && !newOK {
			t.Fatalf("crashAfter=%d: install reported success but old data survives", crashAfter)
		}
		// The recovered replica must satisfy every Ficus invariant,
		// including "no leftover shadow files".
		if problems, err := l2.Check(); err != nil {
			t.Fatalf("crashAfter=%d: ficus check: %v", crashAfter, err)
		} else if len(problems) != 0 {
			t.Fatalf("crashAfter=%d: ficus check found: %v", crashAfter, problems)
		}
		// And the substrate itself must pass fsck.
		if problems, err := fs2.Check(); err != nil {
			t.Fatalf("crashAfter=%d: fsck: %v", crashAfter, err)
		} else if len(problems) != 0 {
			t.Fatalf("crashAfter=%d: fsck found: %v", crashAfter, problems)
		}
	}
}

func TestNewVersionCacheCoalesces(t *testing.T) {
	l, _ := newLayer(t, 1)
	fid := ids.FileID{Issuer: 2, Seq: 5}
	l.NoteNewVersion(RootPath(), fid, 2)
	l.NoteNewVersion(RootPath(), fid, 2)
	l.NoteNewVersion(RootPath(), fid, 3) // later announcement wins as origin
	pend := l.PendingVersions()
	if len(pend) != 1 {
		t.Fatalf("%d entries, want 1 (coalesced)", len(pend))
	}
	if pend[0].Seen != 3 || pend[0].Origin != 3 || pend[0].File != fid {
		t.Fatalf("entry %+v", pend[0])
	}
	l.DropPending(fid)
	if len(l.PendingVersions()) != 0 {
		t.Fatal("DropPending failed")
	}
}

func TestConflictLog(t *testing.T) {
	l, _ := newLayer(t, 1)
	c := Conflict{File: ids.FileID{Issuer: 1, Seq: 9}, Note: "test"}
	l.ReportConflict(c)
	got := l.Conflicts()
	if len(got) != 1 || got[0].Note != "test" {
		t.Fatalf("%+v", got)
	}
	l.ClearConflicts()
	if len(l.Conflicts()) != 0 {
		t.Fatal("ClearConflicts failed")
	}
}

func TestResolveHandleStability(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d, _ := root.Mkdir("d")
	f, _ := d.Create("f", true)
	for _, v := range []vnode.Vnode{root, d, f} {
		got, err := l.Resolve(v.Handle())
		if err != nil {
			t.Fatalf("resolve %q: %v", v.Handle(), err)
		}
		if got.Handle() != v.Handle() {
			t.Fatalf("handle changed: %q -> %q", v.Handle(), got.Handle())
		}
	}
	if _, err := l.Resolve("garbage"); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("garbage handle: %v", err)
	}
	if err := d.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Resolve(f.Handle()); err == nil {
		t.Fatal("stale handle resolved")
	}
}

func TestDirEntriesOfUnstoredDir(t *testing.T) {
	l, _ := newLayer(t, 1)
	bogus := []ids.FileID{ids.RootFileID, {Issuer: 5, Seq: 123}}
	if _, err := l.DirEntries(bogus); !errors.Is(err, ErrNotStored) {
		t.Fatalf("err = %v, want ErrNotStored", err)
	}
	if l.HasDir(bogus) {
		t.Fatal("HasDir true for unstored dir")
	}
	if !l.HasDir(RootPath()) {
		t.Fatal("HasDir false for root")
	}
}

func TestEnsureDirStored(t *testing.T) {
	l, _ := newLayer(t, 1)
	fid := ids.FileID{Issuer: 4, Seq: 50}
	aux := Aux{Type: KDir}
	if err := l.EnsureDirStored(RootPath(), fid, aux); err != nil {
		t.Fatal(err)
	}
	path := append(RootPath(), fid)
	if !l.HasDir(path) {
		t.Fatal("dir not created")
	}
	ds, err := l.DirEntries(path)
	if err != nil || len(ds.Entries) != 0 {
		t.Fatalf("%+v, %v", ds, err)
	}
	// Idempotent.
	if err := l.EnsureDirStored(RootPath(), fid, aux); err != nil {
		t.Fatal(err)
	}
}

// TestLocalOverwriteIsSixDeviceWrites pins what a small local overwrite costs
// on the device, whatever the file's size: a block and the inode for the aux's
// seal (overwritten in place), for the data, and for the aux's header.
func TestLocalOverwriteIsSixDeviceWrites(t *testing.T) {
	for _, size := range []int{5000, 16 * ChecksumBlockSize} {
		l, dev := newLayer(t, 1)
		root, err := l.Root()
		if err != nil {
			t.Fatal(err)
		}
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, bytes.Repeat([]byte("x"), size)); err != nil {
			t.Fatal(err)
		}
		before := dev.Stats().Writes
		if _, err := f.WriteAt([]byte("hello"), 100); err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Writes - before; got != 6 {
			t.Errorf("a 5-byte overwrite of a %d-byte file made %d device writes, want 6", size, got)
		}
	}
}

// TestNamingOpDeviceWrites pins the device writes of every naming op on
// DESIGN.md §10.3's fixture — a fresh store, five 5 000-byte files and a
// subdirectory, then the one op — to the table there.  The directory's share
// is a block and the inode for the append, and as much again for attr; the
// rest is the storage the op makes or reclaims.
func TestNamingOpDeviceWrites(t *testing.T) {
	for _, op := range []struct {
		name string
		want uint64
		run  func(root vnode.Vnode) error
	}{
		{"Create", 14, func(root vnode.Vnode) error { _, err := root.Create("new", true); return err }},
		{"Symlink", 17, func(root vnode.Vnode) error { return root.Symlink("sym", "f0") }},
		{"Mkdir", 21, func(root vnode.Vnode) error { _, err := root.Mkdir("newdir"); return err }},
		{"Link", 6, func(root vnode.Vnode) error {
			f, err := root.Lookup("f0")
			if err != nil {
				return err
			}
			return root.Link("f0b", f)
		}},
		{"Remove", 12, func(root vnode.Vnode) error { return root.Remove("f2") }},
		{"Rmdir", 4, func(root vnode.Vnode) error { return root.Rmdir("sub") }},
		{"Rename within a directory", 4, func(root vnode.Vnode) error { return root.Rename("f3", root, "f3r") }},
		{"Rename over an existing name", 12, func(root vnode.Vnode) error { return root.Rename("f3", root, "f4") }},
		{"Rename across directories", 16, func(root vnode.Vnode) error {
			sub, err := root.Lookup("sub")
			if err != nil {
				return err
			}
			return root.Rename("f3", sub, "f3m")
		}},
	} {
		l, dev := newLayer(t, 1)
		root, err := l.Root()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			f, err := root.Create(fmt.Sprintf("f%d", i), true)
			if err != nil {
				t.Fatal(err)
			}
			if err := vnode.WriteFile(f, bytes.Repeat([]byte{'a' + byte(i)}, 5000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := root.Mkdir("sub"); err != nil {
			t.Fatal(err)
		}
		before := dev.Stats().Writes
		if err := op.run(root); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if got := dev.Stats().Writes - before; got != op.want {
			t.Errorf("%s made %d device writes, want %d", op.name, got, op.want)
		}
	}
}

// TestEncodeOpenLookupMatchesSprintf pins the hand-written encoder to the
// format string it replaced, byte for byte, and to the decoder.
func TestEncodeOpenLookupMatchesSprintf(t *testing.T) {
	vols := []ids.VolumeHandle{{}, {Allocator: ^ids.AllocatorID(0), Volume: ^ids.VolumeID(0)}, testVol}
	names := []string{"", "f", "a:b:c", strings.Repeat("n", MaxEncodedName)}
	if len(names[3]) != 213 {
		t.Fatalf("the longest client name is %d bytes, the issue said 213", len(names[3]))
	}
	flags := []vnode.OpenFlags{0, vnode.OpenRead, vnode.OpenWrite, vnode.OpenRead | vnode.OpenWrite, vnode.OpenFlags(^uint32(0))}
	for _, open := range []bool{true, false} {
		op := map[bool]string{true: "open.", false: "close"}[open]
		for _, f := range flags {
			for _, vol := range vols {
				for _, name := range names {
					got := EncodeOpenLookup(open, f, vol, name)
					want := fmt.Sprintf("%s%s:%08x:%s:%s", ".#ficus#:", op, uint32(f), vol, name)
					if got != want {
						t.Fatalf("EncodeOpenLookup(%v, %#x, %v, %q) =\n%q, Sprintf form\n%q", open, f, vol, name, got, want)
					}
					o, df, dv, dn, err := DecodeOpenLookup(got)
					if err != nil || o != open || uint32(df) != uint32(f) || dv != vol || dn != name {
						t.Fatalf("round trip of %q: %v %#x %v %q %v", got, o, df, dv, dn, err)
					}
				}
			}
		}
	}
}
