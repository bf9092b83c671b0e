package physical

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

func checkFicusClean(t *testing.T, l *Layer) {
	t.Helper()
	probs, err := l.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(probs) != 0 {
		t.Fatalf("ficus fsck found problems:\n%s", strings.Join(probs, "\n"))
	}
}

func TestCheckCleanAfterNormalOps(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	d, _ := root.Mkdir("d")
	f, _ := d.Create("f", true)
	vnode.WriteFile(f, []byte("x"))
	root.Symlink("ln", "target")
	g, _ := root.Create("g", true)
	root.Link("g2", g)
	d.Rename("f", d, "f2")
	root.Remove("ln")
	checkFicusClean(t, l)
}

func TestCheckCleanAfterMergeAndInstall(t *testing.T) {
	a, b := newMergePair(t)
	ra, _ := a.Root()
	rb, _ := b.Root()
	ra.Create("x", true)
	rb.Create("x", true) // name conflict
	rb.Create("y", true)
	mergeBoth(t, a, b)
	checkFicusClean(t, a)
	checkFicusClean(t, b)
}

func TestCheckDetectsOrphanedStorage(t *testing.T) {
	l, _ := newLayer(t, 1)
	// Plant an orphan data+aux pair directly in the root container.
	cont, err := l.containerOf(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	ghost := ids.FileID{Issuer: 9, Seq: 99}
	df, _ := cont.Create(prefixData+ghost.String(), true)
	vnode.WriteFile(df, []byte("orphan"))
	aux := Aux{Type: KFile, Nlink: 1, VV: vv.New()}
	writeAuxFile(writeFresh, cont, prefixAux+ghost.String(), &aux, nil)
	probs, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) < 2 {
		t.Fatalf("orphans not flagged: %v", probs)
	}
}

func TestCheckDetectsMissingAux(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	fid := mustFid(t, f)
	cont, _ := l.containerOf(RootPath())
	if err := cont.Remove(prefixAux + fid.String()); err != nil {
		t.Fatal(err)
	}
	probs, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probs {
		if strings.Contains(p, "partial storage") || strings.Contains(p, "no auxiliary") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing aux not flagged: %v", probs)
	}
}

func TestCheckDetectsShadowLitter(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	fid := mustFid(t, f)
	cont, _ := l.containerOf(RootPath())
	sf, _ := cont.Create(prefixData+fid.String()+suffixShadow, true)
	vnode.WriteFile(sf, []byte("litter"))
	probs, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probs {
		if strings.Contains(p, "shadow") {
			found = true
		}
	}
	if !found {
		t.Fatalf("shadow litter not flagged: %v", probs)
	}
	// ... and Recover consumes it, returning the replica to clean.
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	checkFicusClean(t, l)
}

// TestCheckReadsTheStoreRoot: the store root holds the meta file, the
// journal and the root container, and fsck reports anything else — a leftover
// journal-compaction shadow (which the next mount's Recover settles), foreign
// junk, or a directory of block files from before the delta base replaced
// the block pool.
func TestCheckReadsTheStoreRoot(t *testing.T) {
	l, _ := newLayer(t, 1)
	checkFicusClean(t, l)
	sf, err := l.root.Create(nvcjFileName+suffixShadow, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(sf, []byte("torn compaction")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.root.Create("junk", true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.root.Mkdir("blocks"); err != nil {
		t.Fatal(err)
	}
	probs, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`leftover shadow file "nvcj.shadow" (crash recovery incomplete)`,
		`unidentified member "junk"`,
		`unidentified member "blocks"`,
	}
	for _, w := range want {
		if !slices.ContainsFunc(probs, func(p string) bool { return strings.HasPrefix(p, "store root: ") && strings.Contains(p, w) }) {
			t.Errorf("check did not report %s: %v", w, probs)
		}
	}
	if len(probs) != len(want) {
		t.Fatalf("check reported %d problems, want %d: %v", len(probs), len(want), probs)
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if probs, _ := l.Check(); len(probs) != 2 {
		t.Fatalf("after recovery only the two foreign members remain a problem: %v", probs)
	}
}

// TestCheckRejectsMetaInsideContainer: the meta file lives at the store root
// only; a member of that name inside a container is foreign.
func TestCheckRejectsMetaInsideContainer(t *testing.T) {
	l, _ := newLayer(t, 1)
	cont, err := l.containerOf(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cont.Create(metaFileName, true); err != nil {
		t.Fatal(err)
	}
	probs, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 1 || !strings.Contains(probs[0], `unidentified container member "meta"`) {
		t.Fatalf("check says %v", probs)
	}
}

func TestCheckDetectsBadNlink(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	fid := mustFid(t, f)
	cont, _ := l.containerOf(RootPath())
	aux, err := readAuxFile(cont, prefixAux+fid.String())
	if err != nil {
		t.Fatal(err)
	}
	aux.Nlink = 7
	af, _ := cont.Lookup(prefixAux + fid.String())
	if err := writeAuxVnode(af, &aux); err != nil {
		t.Fatal(err)
	}
	probs, _ := l.Check()
	found := false
	for _, p := range probs {
		if strings.Contains(p, "nlink") {
			found = true
		}
	}
	if !found {
		t.Fatalf("bad nlink not flagged: %v", probs)
	}
}

// TestCorruptDirectoryRecordRemovesNothing: one flipped byte in a middle
// record of a directory's journal fails the whole file — Check reports it and
// names stop resolving — and Recover, which cannot judge storage without the
// entries, removes none of it: not the files of the entries after the bad
// record, not a subdirectory's tree.
func TestCorruptDirectoryRecordRemovesNothing(t *testing.T) {
	l, dev := newLayer(t, 1)
	root, _ := l.Root()
	for _, name := range []string{"a", "b", "c"} {
		f, err := root.Create(name, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := root.Mkdir("sub")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Create("g", true); err != nil {
		t.Fatal(err)
	}
	members := func(l *Layer) []string {
		t.Helper()
		cont, err := l.rootContainer()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		err = walkContainers(cont, func(_ vnode.Vnode, ents []vnode.Dirent) error {
			for _, e := range ents {
				names = append(names, e.Name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(names)
		return names
	}
	before := members(l)

	// b's record — name length 1, "b", no value — is the second of five.
	cont, _ := l.containerOf(RootPath())
	df, _ := cont.Lookup(dirFileName)
	data, _ := vnode.ReadFile(df)
	at := bytes.Index(data, []byte{0, 1, 'b', 0, 0}) + 2
	if at < 2 {
		t.Fatal("b's record is not in the root journal")
	}
	if _, err := df.WriteAt([]byte{'B'}, int64(at)); err != nil {
		t.Fatal(err)
	}

	fs, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(ufsvn.New(fs))
	if err != nil {
		t.Fatal(err)
	}
	if after := members(l2); !slices.Equal(after, before) {
		t.Errorf("Recover changed the store:\nbefore %v\nafter  %v", before, after)
	}
	if probs, err := l2.Check(); err != nil || !slices.ContainsFunc(probs, func(p string) bool { return strings.Contains(p, "unreadable directory contents file") }) {
		t.Errorf("Check of the damaged journal: %v %v", probs, err)
	}
	root2, _ := l2.Root()
	if _, err := root2.Lookup("c"); err == nil {
		t.Error("a name after the bad record resolves from a journal that does not replay")
	}
}

func TestDropTombstones(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	root.Create("f", true)
	sub, _ := root.Mkdir("sub")
	if _, err := sub.Create("inner", true); err != nil {
		t.Fatal(err)
	}
	if err := sub.Remove("inner"); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := root.Rmdir("sub"); err != nil {
		t.Fatal(err)
	}
	ds, _ := l.DirEntries(RootPath())
	var eids []ids.FileID
	for _, e := range ds.Entries {
		if e.Deleted {
			eids = append(eids, e.EID)
		}
	}
	if len(eids) != 2 {
		t.Fatalf("tombstones %d, want 2", len(eids))
	}
	n, err := l.DropTombstones(RootPath(), eids)
	if err != nil || n != 2 {
		t.Fatalf("dropped %d, %v", n, err)
	}
	ds, _ = l.DirEntries(RootPath())
	if len(ds.Entries) != 0 {
		t.Fatalf("entries remain: %+v", ds.Entries)
	}
	// The tombstoned directory's container (with its own tombstones) was
	// reclaimed too.
	checkFicusClean(t, l)
	// Dropping again is a no-op.
	n, err = l.DropTombstones(RootPath(), eids)
	if err != nil || n != 0 {
		t.Fatalf("second drop: %d, %v", n, err)
	}
	// Live entries are never dropped even if their EID is passed.
	g, _ := root.Create("live", true)
	_ = g
	ds, _ = l.DirEntries(RootPath())
	n, err = l.DropTombstones(RootPath(), []ids.FileID{ds.Entries[0].EID})
	if err != nil || n != 0 {
		t.Fatalf("dropped a live entry: %d, %v", n, err)
	}
}
