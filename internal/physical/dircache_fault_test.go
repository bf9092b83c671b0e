package physical

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/vnode"
)

// The crash sweeps remount after every fault, so whatever the running layer
// had cached is gone before they look.  These tests keep the layer: an
// operation fails at some device write, the fault clears, and the same Layer —
// caches warm from before the fault — is asked what it holds.

// nameAnswers is everything the naming calls of l say about the tree, one line
// an answer: per directory DirEntries, Getattr and Readdir, per name Lookup
// and the child's Getattr.  Errors are answers too.
func nameAnswers(l *Layer) []string {
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var walk func(dir vnode.Vnode, dirPath []ids.FileID, path string)
	walk = func(dir vnode.Vnode, dirPath []ids.FileID, path string) {
		ds, err := l.DirEntries(dirPath)
		say("DirEntries %s: %+v vv=%s aux=%v/%d err=%v", path, ds.Entries, ds.VV, ds.Aux.Type, ds.Aux.Nlink, err)
		a, err := dir.Getattr()
		say("Getattr %s: %+v err=%v", path, a, err)
		ents, err := dir.Readdir()
		say("Readdir %s: %+v err=%v", path, ents, err)
		for _, de := range ents {
			child, err := dir.Lookup(de.Name)
			say("Lookup %s%s: err=%v", path, de.Name, err)
			if err != nil {
				continue
			}
			a, err := child.Getattr()
			a.Ctime = 0 // the substrate's clock, not a name's business
			say("Getattr %s%s: %+v handle=%s err=%v", path, de.Name, a, child.Handle(), err)
			if fid, perr := ids.ParseFileID(de.FileID); perr == nil && de.Type == vnode.VDir && err == nil {
				walk(child, append(slices.Clone(dirPath), fid), path+de.Name+"/")
			}
		}
		_, err = dir.Lookup("no-such-name")
		say("Lookup %sno-such-name: err=%v", path, err)
	}
	root, _ := l.Root()
	walk(root, RootPath(), "/")
	return out
}

// firstDiff names the first line two answer lists disagree on.
func firstDiff(got, want []string, gotIs, wantIs string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("answer %d:\n  %s: %s\n  %s: %s", i, gotIs, g, wantIs, w)
		}
	}
	return ""
}

// faultOps are the operations that commit directories, each on the sweep
// fixture (buildSweepBase).
func faultOps() []sweepOp {
	walkTo := func(root vnode.Vnode, path string) vnode.Vnode {
		v, err := vnode.Walk(root, path)
		if err != nil {
			panic(err)
		}
		return v
	}
	tombstones := func(l *Layer, dirPath []ids.FileID) (dead []ids.FileID) {
		ds, err := l.DirEntries(dirPath)
		if err != nil {
			panic(err)
		}
		for _, e := range ds.Entries {
			if e.Deleted {
				dead = append(dead, e.EID)
			}
		}
		return dead
	}
	return []sweepOp{
		{name: "Create", run: func(_ *Layer, root vnode.Vnode) error {
			_, err := root.Create("new", true)
			return err
		}},
		{name: "Remove", run: func(_ *Layer, root vnode.Vnode) error { return root.Remove("f2") }},
		{name: "Rmdir", run: func(_ *Layer, root vnode.Vnode) error { return root.Rmdir("empty") }},
		{name: "RenameSameDir", run: func(_ *Layer, root vnode.Vnode) error { return root.Rename("f3", root, "f3r") }},
		{name: "RenameCrossDirFile", run: func(_ *Layer, root vnode.Vnode) error {
			return root.Rename("f3", walkTo(root, "/sub"), "f3m")
		}},
		{name: "RenameCrossDirDirectory", run: func(_ *Layer, root vnode.Vnode) error {
			return walkTo(root, "/sub").Rename("d", root, "d2")
		}},
		// A remote replica's view of the root: f0 deleted there, a second
		// "f1" inserted concurrently (a name conflict), a new name.
		{name: "ApplyDirMerge", run: func(l *Layer, _ vnode.Vnode) error {
			ds, err := l.DirEntries(RootPath())
			if err != nil {
				return err
			}
			for i := range ds.Entries {
				if ds.Entries[i].Name == "f0" {
					ds.Entries[i].Deleted = true
				}
			}
			ds.Entries = append(ds.Entries,
				Entry{EID: ids.FileID{Issuer: 2, Seq: 5}, Name: "f1", Child: ids.FileID{Issuer: 2, Seq: 4}, Kind: KFile},
				Entry{EID: ids.FileID{Issuer: 2, Seq: 7}, Name: "theirs", Child: ids.FileID{Issuer: 2, Seq: 6}, Kind: KDir})
			ds.VV = ds.VV.Clone().Bump(2)
			_, err = l.ApplyDirMerge(RootPath(), ds)
			return err
		}},
		// Collecting the tombstone of a removed directory removes its
		// container, and with it frees inodes for reuse.
		{name: "DropTombstones",
			prep: func(_ *Layer, root vnode.Vnode) error {
				if err := root.Rmdir("empty"); err != nil {
					return err
				}
				return root.Remove("f2")
			},
			run: func(l *Layer, _ vnode.Vnode) error {
				_, err := l.DropTombstones(RootPath(), tombstones(l, RootPath()))
				return err
			}},
	}
}

// TestLiveLayerAnswersAsStoreAfterDiskFault fails every device write of every
// directory-committing operation in turn, on a layer whose caches are warm,
// and then holds the same Layer to its store twice over.  First, every naming
// answer it gives from its caches must be the answer it gives once they are
// flushed: a cache that kept what a failed commit did not write, or kept its
// old image past a commit that did land, answers differently.  Then it runs
// Recover over whatever the cut operation left, caches warm again, and must
// answer exactly as a fresh Open of the same store.
//
// The fresh Open is of the live store, not of a mount of a snapshot of its
// device: after a failed multi-write operation the substrate's own name cache
// no longer agrees with its device (a rename cut in two reads as done to a
// fresh mount and as not begun to the running one), here and at the parent of
// this change alike, and that is not this layer's to answer for.  So the
// running Recover never gets to promote a shadow here — what it does to the
// caches when it changes the store is TestStaleDirectoryHandles' business —
// and a store whose recovery walk now fails (some cuts of a cross-directory
// rename's hard links and unlinks, again at the parent too) skips the second
// comparison; it is counted.
func TestLiveLayerAnswersAsStoreAfterDiskFault(t *testing.T) {
	cases, unopenable := 0, 0
	holdToStore := func(t *testing.T, tag string, l *Layer) {
		t.Helper()
		cached := nameAnswers(l)
		l.FlushCaches()
		if d := firstDiff(cached, nameAnswers(l), "from its caches", "once flushed"); d != "" {
			t.Fatalf("%s: %s", tag, d)
		}
		if err := l.Recover(); err != nil {
			unopenable++
			return
		}
		recovered := nameAnswers(l)
		fresh, err := Open(l.Store())
		if err != nil {
			unopenable++
			return
		}
		if d := firstDiff(recovered, nameAnswers(fresh), "live layer", "fresh open"); d != "" {
			t.Fatalf("%s: after Recover: %s", tag, d)
		}
	}
	for _, op := range faultOps() {
		t.Run(op.name, func(t *testing.T) {
			setup := func() (*disk.Device, *Layer, vnode.Vnode) {
				dev, l := newSweepFixture(t)
				root, _ := l.Root()
				if op.prep != nil {
					if err := op.prep(l, root); err != nil {
						t.Fatalf("prep: %v", err)
					}
				}
				nameAnswers(l) // warm every directory and path
				return dev, l, root
			}
			dev, l, root := setup()
			w0 := dev.Stats().Writes
			if err := op.run(l, root); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			writes := int(dev.Stats().Writes - w0)
			holdToStore(t, "clean run", l)
			for k := 0; k < writes; k++ {
				tag := fmt.Sprintf("k=%d/%d", k, writes)
				dev, l, root := setup()
				dev.FaultAfterWrites(k)
				opErr := op.run(l, root)
				if !dev.Faulted() {
					t.Fatalf("%s: the fault never fired", tag)
				}
				dev.ClearFault()
				holdToStore(t, fmt.Sprintf("%s (op error: %v)", tag, opErr), l)
				cases++
			}
		})
	}
	t.Logf("%d faulted operations compared, %d of them on a store Recover could no longer walk", cases, unopenable)
	if unopenable*10 > cases {
		t.Errorf("%d of %d faulted stores could not be recovered; the second comparison hardly ran", unopenable, cases)
	}
}

// staleAnswers is what a directory vnode and its handle, both minted earlier,
// say now.
func staleAnswers(l *Layer, dir vnode.Vnode, handle string) []string {
	var out []string
	_, err := l.Resolve(handle)
	out = append(out, fmt.Sprintf("Resolve: err=%v", err))
	a, err := dir.Getattr()
	out = append(out, fmt.Sprintf("Getattr: nlink=%d size=%d err=%v", a.Nlink, a.Size, err))
	ents, err := dir.Readdir()
	out = append(out, fmt.Sprintf("Readdir: %+v err=%v", ents, err))
	for _, name := range []string{"mine", "theirs"} {
		_, err = dir.Lookup(name)
		out = append(out, fmt.Sprintf("Lookup %s: err=%v", name, err))
	}
	return out
}

// TestStaleDirectoryHandles: the path cache maps a fid path to a store handle,
// and store handles are bare inode numbers, reused at once.  A handle to a
// directory that has since been removed, collected and whose inode now carries
// another directory, and one to a directory since moved to another parent,
// must answer what they answered before there was a cache — recorded at the
// parent of this change: not stored — and never with the entries of whatever
// the remembered inode has become.
func TestStaleDirectoryHandles(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	gone := []string{
		fmt.Sprintf("Resolve: err=%v", vnode.ENOSTOR),
		fmt.Sprintf("Getattr: nlink=0 size=0 err=%v", vnode.ENOSTOR),
		fmt.Sprintf("Readdir: [] err=%v", vnode.ENOSTOR),
		fmt.Sprintf("Lookup mine: err=%v", vnode.ENOSTOR),
		fmt.Sprintf("Lookup theirs: err=%v", vnode.ENOSTOR),
	}
	t.Run("RemovedCollectedInodeReused", func(t *testing.T) {
		l, _ := newLayer(t, 1)
		root, _ := l.Root()
		x, err := root.Mkdir("x")
		must(err)
		_, err = x.Create("mine", true)
		must(err)
		handle := x.Handle()
		staleAnswers(l, x, handle) // warm: path and image are cached
		xCont, err := l.containerOf(append(RootPath(), mustFid(t, x)))
		must(err)

		must(x.Remove("mine"))
		must(root.Rmdir("x"))
		ds, err := l.DirEntries(RootPath())
		must(err)
		_, err = l.DropTombstones(RootPath(), []ids.FileID{ds.Entries[0].EID})
		must(err)
		y, err := root.Mkdir("y")
		must(err)
		_, err = y.Create("theirs", true)
		must(err)
		yCont, err := l.containerOf(append(RootPath(), mustFid(t, y)))
		must(err)
		if yCont.Handle() != xCont.Handle() {
			t.Fatalf("y's container is inode %s, x's was %s: nothing was reused, the test is vacuous", yCont.Handle(), xCont.Handle())
		}
		if d := firstDiff(staleAnswers(l, x, handle), gone, "now", "at the parent commit"); d != "" {
			t.Error(d)
		}
	})
	// Recover rewrites the store under both caches.  Here it meets a container
	// no entry names (the root's contents file is replaced behind the layer's
	// back, as a crash before the entry's commit would have left it) and
	// removes it.
	t.Run("ReclaimedByRecover", func(t *testing.T) {
		l, _ := newLayer(t, 1)
		root, _ := l.Root()
		x, err := root.Mkdir("x")
		must(err)
		_, err = x.Create("mine", true)
		must(err)
		handle := x.Handle()
		staleAnswers(l, x, handle)
		xCont, err := l.containerOf(append(RootPath(), mustFid(t, x)))
		must(err)
		rootCont, err := l.containerOf(RootPath())
		must(err)
		must(atomicReplace(rootCont, dirFileName, encodeEntries(nil)))

		must(l.Recover())
		if _, err := root.Lookup("x"); vnode.AsErrno(err) != vnode.ENOENT {
			t.Errorf("Lookup of the name Recover found gone: %v, want ENOENT", err)
		}
		y, err := root.Mkdir("y")
		must(err)
		_, err = y.Create("theirs", true)
		must(err)
		yCont, err := l.containerOf(append(RootPath(), mustFid(t, y)))
		must(err)
		if yCont.Handle() != xCont.Handle() {
			t.Fatalf("y's container is inode %s, x's was %s: nothing was reused, the test is vacuous", yCont.Handle(), xCont.Handle())
		}
		if d := firstDiff(staleAnswers(l, x, handle), gone, "now", "at the parent commit"); d != "" {
			t.Error(d)
		}
	})
	t.Run("MovedAcrossDirectories", func(t *testing.T) {
		l, _ := newLayer(t, 1)
		root, _ := l.Root()
		a, err := root.Mkdir("a")
		must(err)
		b, err := root.Mkdir("b")
		must(err)
		x, err := a.Mkdir("x")
		must(err)
		_, err = x.Create("mine", true)
		must(err)
		handle := x.Handle()
		staleAnswers(l, x, handle)

		must(a.Rename("x", b, "x"))
		if d := firstDiff(staleAnswers(l, x, handle), gone, "now", "at the parent commit"); d != "" {
			t.Error(d)
		}
		// Under its new path it is all there.
		moved, err := b.Lookup("x")
		must(err)
		if _, err := moved.Lookup("mine"); err != nil {
			t.Errorf("b/x/mine after the move: %v", err)
		}
		if _, err := l.Resolve(moved.Handle()); err != nil {
			t.Errorf("Resolve of the new handle: %v", err)
		}
	})
}
