package physical

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// The crash gate for local mutations (ROADMAP item 1a): every mutating op of
// the physical vnode, power-failed at every device write it performs — the
// crashing write lost, and again with a 7-byte prefix of it on the platter —
// then remounted.  The other sweeps in this package crash an install or the
// journal; this one crashes the operations a client calls.

// sweepNode is what one name resolves to, as a client and the reconciliation
// protocol see it.
type sweepNode struct {
	kind     vnode.VType
	fid      string
	unstored bool   // the entry exists, this replica holds no storage for it
	data     string // file bytes, symlink target
	vv       string // a file's version vector
	mode     uint16
	graft    string // a graft point's volume
}

// sweepTree maps every path of a volume replica to what it resolves to.
type sweepTree map[string]sweepNode

func (tr sweepTree) with(path string, n sweepNode) sweepTree {
	out := maps.Clone(tr)
	out[path] = n
	return out
}

// diff names the paths on which two trees disagree.
func (tr sweepTree) diff(want sweepTree) string {
	var out []string
	for p, n := range tr {
		if w, ok := want[p]; !ok {
			out = append(out, "+"+p)
		} else if w != n {
			out = append(out, "≠"+p)
		}
	}
	for p := range want {
		if _, ok := tr[p]; !ok {
			out = append(out, "-"+p)
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// walkSweepTree reads the whole replica through its vnodes, returning the
// tree and the largest sequence number this replica has issued to any entry
// or file in it.
func walkSweepTree(t *testing.T, l *Layer, tag string) (sweepTree, uint64) {
	t.Helper()
	tr := sweepTree{}
	var maxSeq uint64
	var walk func(dir vnode.Vnode, dirPath []ids.FileID, path string)
	walk = func(dir vnode.Vnode, dirPath []ids.FileID, path string) {
		ds, err := l.DirEntries(dirPath)
		if err != nil {
			t.Fatalf("%s: DirEntries(%s): %v", tag, path, err)
		}
		for _, e := range ds.Entries {
			for _, id := range []ids.FileID{e.EID, e.Child} {
				if id.Issuer == l.Replica() {
					maxSeq = max(maxSeq, id.Seq)
				}
			}
		}
		ents, err := dir.Readdir()
		if err != nil {
			t.Fatalf("%s: Readdir(%s): %v", tag, path, err)
		}
		for _, de := range ents {
			p := path + de.Name
			n := sweepNode{kind: de.Type, fid: de.FileID}
			child, err := dir.Lookup(de.Name)
			if vnode.AsErrno(err) == vnode.ENOSTOR {
				n.unstored = true
				tr[p] = n
				continue
			} else if err != nil {
				t.Fatalf("%s: Lookup(%s): %v", tag, p, err)
			}
			attr, err := child.Getattr()
			if err != nil {
				t.Fatalf("%s: Getattr(%s): %v", tag, p, err)
			}
			fid, err := ids.ParseFileID(de.FileID)
			if err != nil {
				t.Fatalf("%s: %s: %v", tag, p, err)
			}
			if de.Type == vnode.VDir {
				n.graft = attr.GraftVol
				tr[p] = n
				walk(child, append(slices.Clone(dirPath), fid), p+"/")
				continue
			}
			data, err := vnode.ReadFile(child)
			if err != nil {
				t.Fatalf("%s: read %s: %v", tag, p, err)
			}
			st, err := l.FileInfo(dirPath, fid)
			if err != nil {
				t.Fatalf("%s: FileInfo(%s): %v", tag, p, err)
			}
			n.data, n.vv, n.mode = string(data), st.Aux.VV.String(), attr.Mode
			tr[p] = n
		}
	}
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	walk(root, RootPath(), "/")
	return tr, maxSeq
}

// sweepPayload is a deterministic two-block file body.
func sweepPayload(tag byte) []byte {
	p := bytes.Repeat([]byte{tag}, 5000)
	for i := range p {
		if i%97 == 0 {
			p[i] = byte(i / 97)
		}
	}
	return p
}

var sweepGraftVol = ids.VolumeHandle{Allocator: 7, Volume: 9}

// sweepGhost is a directory the fixture names but does not store, for
// EnsureDirStored.
var sweepGhost = ids.FileID{Issuer: 5, Seq: 77}

// sweepBase is the device image every case starts from, built once:
//
//	/f0 … /f4   five 5 000-byte files      /twin    a second name of /f1
//	/sub/g      a file in a subdirectory   /sub/d/h a file two levels down
//	/empty      an empty directory         /ghost   a directory not stored here
var sweepBase *disk.Device

func buildSweepBase(t *testing.T) *disk.Device {
	t.Helper()
	// A small device: mounting and checking cost a pass over both bitmaps.
	dev := disk.New(512)
	fs, err := ufs.Mkfs(dev, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	put := func(dir vnode.Vnode, name string, tag byte) vnode.Vnode {
		t.Helper()
		f, err := dir.Create(name, true)
		must(err)
		must(vnode.WriteFile(f, sweepPayload(tag)))
		return f
	}
	root, err := l.Root()
	must(err)
	var f1 vnode.Vnode
	for i := 0; i < 5; i++ {
		if f := put(root, fmt.Sprintf("f%d", i), byte('a'+i)); i == 1 {
			f1 = f
		}
	}
	must(root.Link("twin", f1))
	sub, err := root.Mkdir("sub")
	must(err)
	put(sub, "g", 'g')
	d, err := sub.Mkdir("d")
	must(err)
	put(d, "h", 'h')
	_, err = root.Mkdir("empty")
	must(err)
	must(l.AppendEntry(RootPath(), Entry{Name: "ghost", Child: sweepGhost, Kind: KDir}))
	return dev
}

// newSweepFixture mounts a private copy of the acknowledged state.  (The
// Layer is fresh, so the first id an op allocates also commits the
// sequencer's next high-water mark.)
func newSweepFixture(t *testing.T) (*disk.Device, *Layer) {
	t.Helper()
	if sweepBase == nil {
		sweepBase = buildSweepBase(t)
	}
	dev := sweepBase.Snapshot()
	fs, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(ufsvn.New(fs))
	if err != nil {
		t.Fatal(err)
	}
	return dev, l
}

// sweepOp is one mutating operation under test.
type sweepOp struct {
	name string
	// prep, if set, runs to completion first: acknowledged state the shared
	// fixture does not hold.
	prep func(l *Layer, root vnode.Vnode) error
	run  func(l *Layer, root vnode.Vnode) error
	// allowed lists the states a crash may leave; nil means the op is
	// all-or-nothing: exactly before or after.
	allowed func(before, after sweepTree) []sweepTree
	// inPlace names the one file an overwriting op may leave block-wise
	// old-or-new (the substrate overwrites in place; atomic local writes are
	// not a Ficus promise).  Every other path must be untouched.
	inPlace string
}

func sweepOps() []sweepOp {
	onFile := func(path string, do func(f vnode.Vnode) error) func(*Layer, vnode.Vnode) error {
		return func(_ *Layer, root vnode.Vnode) error {
			f, err := vnode.Walk(root, path)
			if err != nil {
				return err
			}
			return do(f)
		}
	}
	rename := func(from, oldName, to, newName string) func(*Layer, vnode.Vnode) error {
		return func(_ *Layer, root vnode.Vnode) error {
			src, err := vnode.Walk(root, from)
			if err != nil {
				return err
			}
			dst, err := vnode.Walk(root, to)
			if err != nil {
				return err
			}
			return src.Rename(oldName, dst, newName)
		}
	}
	// A cross-directory rename commits two directories: the new name may
	// appear before the old one goes.
	bothNames := func(newPath string) func(before, after sweepTree) []sweepTree {
		return func(before, after sweepTree) []sweepTree {
			return []sweepTree{before, after, before.with(newPath, after[newPath])}
		}
	}
	// For a directory both names may be live, with the container — and so
	// everything beneath — under exactly one of them.
	eitherHolds := func(oldPath, newPath string) func(before, after sweepTree) []sweepTree {
		return func(before, after sweepTree) []sweepTree {
			ghost := func(n sweepNode) sweepNode { n.unstored = true; return n }
			return []sweepTree{before, after,
				before.with(newPath, ghost(after[newPath])),
				after.with(oldPath, ghost(before[oldPath]))}
		}
	}
	mode := uint16(0o600)
	return []sweepOp{
		{name: "Create", run: func(_ *Layer, root vnode.Vnode) error {
			_, err := root.Create("new", true)
			return err
		}},
		{name: "Mkdir", run: func(_ *Layer, root vnode.Vnode) error {
			_, err := root.Mkdir("newdir")
			return err
		}},
		{name: "MkGraft", run: func(_ *Layer, root vnode.Vnode) error {
			_, err := root.(*pvnode).MkGraft("graft", sweepGraftVol)
			return err
		}},
		{name: "Symlink", run: func(_ *Layer, root vnode.Vnode) error {
			return root.Symlink("sym", "sub/g")
		}},
		{name: "Link", run: func(_ *Layer, root vnode.Vnode) error {
			f, err := root.Lookup("f0")
			if err != nil {
				return err
			}
			return root.Link("f0b", f)
		}},
		{name: "Remove", run: func(_ *Layer, root vnode.Vnode) error { return root.Remove("f2") }},
		{name: "RemoveOneOfTwoNames", run: func(_ *Layer, root vnode.Vnode) error { return root.Remove("twin") }},
		{name: "Rmdir", run: func(_ *Layer, root vnode.Vnode) error { return root.Rmdir("empty") }},
		{name: "RenameSameDir", run: rename("/", "f3", "/", "f3r")},
		{name: "RenameOverExisting", run: rename("/", "f3", "/", "f4")},
		{name: "RenameCrossDirFile", run: rename("/", "f3", "/sub", "f3m"), allowed: bothNames("/sub/f3m")},
		{name: "RenameCrossDirSecondName", run: rename("/", "twin", "/sub", "twinm"), allowed: bothNames("/sub/twinm")},
		// Recover meets the destination first in one direction, the source
		// first in the other.
		{name: "RenameCrossDirDirectoryUp", run: rename("/sub", "d", "/", "d2"), allowed: eitherHolds("/sub/d", "/d2")},
		{name: "RenameCrossDirDirectoryDown", run: rename("/", "empty", "/sub", "e2"), allowed: eitherHolds("/empty", "/sub/e2")},
		{name: "AppendEntry", run: func(l *Layer, _ vnode.Vnode) error {
			return l.AppendEntry(RootPath(), Entry{Name: "r00000002", Child: ids.FileID{Issuer: 9, Seq: 9}, Kind: KFile, Value: "host-b"})
		}},
		{name: "EnsureDirStored", run: func(l *Layer, _ vnode.Vnode) error {
			return l.EnsureDirStored(RootPath(), sweepGhost, Aux{Type: KDir})
		}},
		{name: "WriteAt", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error {
			_, err := f.WriteAt([]byte("WRITE"), 4094) // straddles both blocks
			return err
		})},
		{name: "Truncate", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(100) })},
		{name: "Setattr", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error {
			return f.Setattr(vnode.SetAttr{Mode: &mode})
		})},
		// The seal's address count moves both ways, one block at a time and
		// across a hole.
		{name: "WriteAtGrows", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error {
			_, err := f.WriteAt([]byte("GROWN"), 3*ChecksumBlockSize-2) // two blocks become four
			return err
		})},
		{name: "TruncateGrows", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(20000) })},
		{name: "TruncateToNothing", inPlace: "/f0", run: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(0) })},
		// A sparse file a little over 1 MiB has an aux two device blocks
		// long: its reseal in place is not one device write.  The vector
		// changes in the first, this write's address in the second.
		{name: "WriteAtUnderTwoBlockSidecar", inPlace: "/f0", prep: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(1<<20 + 9000) }),
			run: onFile("/f0", func(f vnode.Vnode) error {
				_, err := f.WriteAt([]byte("TAIL"), 1<<20+8000)
				return err
			})},
		{name: "TruncateUnderTwoBlockSidecar", inPlace: "/f0", prep: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(1<<20 + 9000) }),
			run: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(6000) })},
		// A seal that is not current — here what an install that crashed after
		// its seal leaves — vouches for nothing: the update hashes every
		// block it keeps and replaces the seal.
		{name: "WriteAtOverStaleSeal", inPlace: "/f0", prep: staleSeal("/f0"), run: onFile("/f0", func(f vnode.Vnode) error {
			_, err := f.WriteAt([]byte("WRITE"), 4094)
			return err
		})},
		{name: "TruncateOverStaleSeal", inPlace: "/f0", prep: staleSeal("/f0"), run: onFile("/f0", func(f vnode.Vnode) error { return f.Truncate(100) })},
		// The directory journal: an append that would take it past its
		// compaction threshold replaces it with a snapshot instead; a first
		// install writes the copy's members in place, the aux last.
		{name: "CreateCompactsJournal", prep: fillRootJournal, run: func(l *Layer, root vnode.Vnode) error {
			if _, err := root.Create("new", true); err != nil {
				return err
			}
			return rootCompacted(l)
		}},
		{name: "InstallFirstCopy", prep: func(l *Layer, _ vnode.Vnode) error {
			return l.AppendEntry(RootPath(), Entry{Name: "far", Child: sweepFar, Kind: KFile})
		}, run: func(l *Layer, _ vnode.Vnode) error {
			return l.InstallFileVersion(RootPath(), sweepFar, KFile, sweepPayload('x'), vv.Vector{5: 1}, 1)
		}},
	}
}

// sweepFar is a file the root names once InstallFirstCopy's prep has run, and
// this replica does not store until its install.
var sweepFar = ids.FileID{Issuer: 5, Seq: 88}

// fillRootJournal churns the root directory — an entry naming a file stored
// elsewhere, then its tombstone — until one more record the size of
// Create("new")'s would take its journal past the compaction threshold.
func fillRootJournal(l *Layer, _ vnode.Vnode) error {
	cont, err := l.containerOf(RootPath())
	if err != nil {
		return err
	}
	next := len(appendRecord(nil, []Entry{{Name: "new"}}))
	var e Entry
	for i := 0; i < 200; i++ {
		d, err := l.dirLocked(cont)
		if err != nil {
			return err
		}
		if d.end+next > max(2*d.snap, 4096) { // commitDirLocked's compaction rule
			return nil
		}
		// Odd steps tombstone the entry the step before added, under a name
		// as long as "new": each record is as long as the op's.
		if i%2 == 1 {
			e.Deleted = true
		} else {
			id, err := l.NextID()
			if err != nil {
				return err
			}
			e = Entry{EID: id, Name: fmt.Sprintf("g%02d", i/2), Child: ids.FileID{Issuer: 5, Seq: uint64(1000 + i)}, Kind: KFile}
		}
		if err := l.AppendEntry(RootPath(), e); err != nil {
			return err
		}
	}
	return errors.New("the root journal never reached its compaction threshold")
}

// rootCompacted fails unless the root directory's journal is a bare snapshot.
func rootCompacted(l *Layer) error {
	cont, err := l.containerOf(RootPath())
	if err != nil {
		return err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return err
	}
	if d.end != d.snap {
		return fmt.Errorf("the root journal is %d bytes on a %d-byte snapshot: the op did not compact it", d.end, d.snap)
	}
	return nil
}

// staleSeal leaves the root-directory file at path under the seal of an
// install, from replica 2, that crashed before replacing the data.
func staleSeal(path string) func(*Layer, vnode.Vnode) error {
	return func(l *Layer, root vnode.Vnode) error {
		f, err := vnode.Walk(root, path)
		if err != nil {
			return err
		}
		a, err := f.Getattr()
		if err != nil {
			return err
		}
		fid, err := ids.ParseFileID(a.FileID)
		if err != nil {
			return err
		}
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			return err
		}
		cont, err := l.containerOf(RootPath())
		if err != nil {
			return err
		}
		return plantSeal(cont, fid, st.Aux.VV.Clone().Bump(2), ComputeManifest(sweepPayload('z')))
	}
}

// plantSeal replaces fid's aux member in cont by its header and a tail sealing
// m under sealed.
func plantSeal(cont vnode.Vnode, fid ids.FileID, sealed vv.Vector, m *BlockManifest) error {
	aux, err := readAuxFile(cont, prefixAux+fid.String())
	if err != nil {
		return err
	}
	img, err := auxBytes(&aux)
	if err != nil {
		return err
	}
	return atomicReplace(cont, prefixAux+fid.String(), append(img, encodeSidecar(sealed, m)...))
}

// blockwiseOldOrNew reports whether every 4 KiB block of got, zero-padded,
// is that block of old or of new.
func blockwiseOldOrNew(got, old, new string) bool {
	block := func(s string, i int) string {
		b := make([]byte, ChecksumBlockSize)
		if off := i * ChecksumBlockSize; off < len(s) {
			copy(b, s[off:])
		}
		return string(b)
	}
	if len(got) != len(old) && len(got) != len(new) {
		return false
	}
	for i := 0; i*ChecksumBlockSize < max(len(old), len(new)); i++ {
		if g := block(got, i); g != block(old, i) && g != block(new, i) {
			return false
		}
	}
	return true
}

// checkStoreMembers walks the store's containers asserting what Check does
// not: every aux header decodes, a seal vouches only for bytes it covers
// (sealed vector == header vector ⇒ the manifest verifies), and no member is
// hard-linked from two containers (the transient state of a cross-directory
// rename never survives a mount).
func checkStoreMembers(t *testing.T, l *Layer, tag string) {
	t.Helper()
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	err = walkContainers(cont, func(c vnode.Vnode, ents []vnode.Dirent) error {
		for _, e := range ents {
			if e.Type == vnode.VDir {
				continue
			}
			f, err := c.Lookup(e.Name)
			if err != nil {
				return err
			}
			if a, err := f.Getattr(); err != nil {
				return err
			} else if a.Nlink != 1 {
				t.Errorf("%s: store member %s is linked %d times", tag, e.Name, a.Nlink)
			}
			fid, ok := memberFID(e.Name)
			if !ok || !strings.HasPrefix(e.Name, prefixAux) {
				continue
			}
			_, aux, sc, err := openAuxFile(c, e.Name)
			if err != nil {
				t.Errorf("%s: aux %s does not decode: %v", tag, e.Name, err)
				continue
			}
			if sc == nil {
				continue // unverifiable, never wrong
			}
			df, err := c.Lookup(prefixData + fid.String())
			if err != nil {
				return err
			}
			data, err := vnode.ReadFile(df)
			if err != nil {
				return err
			}
			if !sc.Verify(data) {
				t.Errorf("%s: the seal of %s is sealed under the current vector %s but does not verify the data", tag, e.Name, aux.VV)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: store walk: %v", tag, err)
	}
}

// TestCrashAtEveryWriteOfEveryLocalOp is the gate.  After a crash at any
// device write of any local mutating op, clean or torn: Open succeeds; every
// name acknowledged before the op still resolves to its bytes and version
// vector; a single-directory op happened entirely or not at all; a
// cross-directory rename leaves the old name, both, or the new name, never a
// name resolving to less than the whole file; an overwrite leaves every other
// file untouched and the written one block-wise old-or-new under an honest
// seal; the sequencer resumes past every id in the tree; and Check and
// ufs.Check are clean with nothing reclaimed by the test.
func TestCrashAtEveryWriteOfEveryLocalOp(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 4
	}
	offsets := 0
	for _, op := range sweepOps() {
		t.Run(op.name, func(t *testing.T) {
			// A clean twin run gives the before and after states and the
			// number of device writes to sweep.
			dev, l := newSweepFixture(t)
			root, _ := l.Root()
			if op.prep != nil {
				if err := op.prep(l, root); err != nil {
					t.Fatalf("clean run: prep: %v", err)
				}
			}
			before, _ := walkSweepTree(t, l, "before")
			w0 := dev.Stats().Writes
			if err := op.run(l, root); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			writes := int(dev.Stats().Writes - w0)
			after, _ := walkSweepTree(t, l, "after")
			if after.diff(before) == "" {
				t.Fatal("the op changed nothing; the sweep is vacuous")
			}
			if probs, err := l.Check(); err != nil || len(probs) != 0 {
				t.Fatalf("clean run: Check: %v %v", probs, err)
			}
			allowed := []sweepTree{before, after}
			if op.allowed != nil {
				allowed = op.allowed(before, after)
			} else if op.inPlace != "" {
				allowed = []sweepTree{before} // compared with the written file masked
			}

			for k := 0; k <= writes; k += step {
				for _, torn := range []bool{false, true} {
					tag := fmt.Sprintf("k=%d/%d torn=%v", k, writes, torn)
					dev, l := newSweepFixture(t)
					root, _ := l.Root()
					if op.prep != nil {
						if err := op.prep(l, root); err != nil {
							t.Fatalf("%s: prep: %v", tag, err)
						}
					}
					if torn {
						dev.FaultAfterWritesTorn(k, 7)
					} else {
						dev.FaultAfterWrites(k)
					}
					opErr := op.run(l, root)
					crashed := dev.Faulted()
					dev.ClearFault()
					if crashed != (k < writes) {
						t.Fatalf("%s: crashed=%v", tag, crashed)
					}

					fs2, err := ufs.Mount(dev, nil)
					if err != nil {
						t.Fatalf("%s: ufs mount: %v", tag, err)
					}
					l2, err := Open(ufsvn.New(fs2))
					if err != nil {
						t.Fatalf("%s: Open after crash: %v", tag, err)
					}
					if probs, err := l2.Check(); err != nil || len(probs) != 0 {
						t.Fatalf("%s: Check: %v %v", tag, probs, err)
					}
					if probs, err := fs2.Check(); err != nil || len(probs) != 0 {
						t.Fatalf("%s: ufs.Check: %v %v", tag, probs, err)
					}
					checkStoreMembers(t, l2, tag)

					got, maxSeq := walkSweepTree(t, l2, tag)
					if op.inPlace != "" {
						g, b, a := got[op.inPlace], before[op.inPlace], after[op.inPlace]
						if !blockwiseOldOrNew(g.data, b.data, a.data) {
							t.Fatalf("%s: %s is neither old nor new in some block (%d bytes)", tag, op.inPlace, len(g.data))
						}
						if (g.vv != b.vv && g.vv != a.vv) || (g.mode != b.mode && g.mode != a.mode) {
							t.Fatalf("%s: %s has vector %s mode %o", tag, op.inPlace, g.vv, g.mode)
						}
						// Everything else about the tree must be as before.
						got = got.with(op.inPlace, b)
						if !crashed && opErr == nil && (g.data != a.data || g.vv != a.vv || g.mode != a.mode) {
							t.Fatalf("%s: the op was acknowledged but %s is not its result", tag, op.inPlace)
						}
					}
					if !slices.ContainsFunc(allowed, func(w sweepTree) bool { return got.diff(w) == "" }) {
						t.Fatalf("%s (op error: %v): the tree is in no allowed state; against before: %s; against after: %s",
							tag, opErr, got.diff(before), got.diff(after))
					}
					if !crashed && opErr == nil && op.inPlace == "" && got.diff(after) != "" {
						t.Fatalf("%s: the op was acknowledged but the tree differs from its result: %s", tag, got.diff(after))
					}

					id, err := l2.NextID()
					if err != nil {
						t.Fatalf("%s: NextID: %v", tag, err)
					}
					if id.Seq <= maxSeq {
						t.Fatalf("%s: NextID reissued %v; the tree already holds sequence %d", tag, id, maxSeq)
					}
					offsets++
				}
			}
		})
	}
	t.Logf("swept %d crash cases", offsets)
}

// TestTornResealNeverSplicesACurrentSeal aims a torn write at the one place
// an in-place reseal could forge a seal.  An install that crashed after its
// seal left the aux's tail sealed under a vector that differs from the
// header's only in a counter that precedes this replica's; a local write's
// new seal differs from the header's vector only in this replica's counter,
// which comes later.  Torn between the two, new head over old tail would spell
// exactly the header's vector above the crashed install's addresses.  An
// install over the stored copy writes its seal in place over the same stale
// tail.  Swept over every device write of each and every tear length that can
// end inside the tail's vector, the seal rule must hold (sealed == header ⇒
// the manifest verifies) and every header must decode.
func TestTornResealNeverSplicesACurrentSeal(t *testing.T) {
	base := disk.New(512)
	fs, err := ufs.Mkfs(base, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, 2)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := l.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, sweepPayload('a')); err != nil {
		t.Fatal(err)
	}
	fid := mustFid(t, f)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	installed := st.Aux.VV.Clone().Bump(1)
	if err := l.InstallFileVersion(RootPath(), fid, KFile, sweepPayload('b'), installed, 1); err != nil {
		t.Fatal(err)
	}
	cont, err := l.containerOf(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := plantSeal(cont, fid, installed.Clone().Bump(1), ComputeManifest(sweepPayload('c'))); err != nil {
		t.Fatal(err)
	}

	open := func(dev *disk.Device) (*Layer, vnode.Vnode) {
		t.Helper()
		fs, err := ufs.Mount(dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(ufsvn.New(fs))
		if err != nil {
			t.Fatal(err)
		}
		root, _ := l.Root()
		f, err := root.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		return l, f
	}
	for _, op := range []struct {
		name string
		run  func(*Layer, vnode.Vnode) error
	}{
		{"WriteAt", func(_ *Layer, f vnode.Vnode) error { _, err := f.WriteAt([]byte("WRITE"), 10); return err }},
		{"InstallOverStoredCopy", func(l *Layer, _ vnode.Vnode) error {
			return l.InstallFileVersion(RootPath(), fid, KFile, sweepPayload('d'), installed.Clone().Bump(3), 1)
		}},
	} {
		dev := base.Snapshot()
		l, f := open(dev)
		w0 := dev.Stats().Writes
		if err := op.run(l, f); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		writes := int(dev.Stats().Writes - w0)
		for k := 0; k < writes; k++ {
			for torn := auxFileSize + 1; torn <= auxFileSize+64; torn++ {
				dev := base.Snapshot()
				l, f := open(dev)
				dev.FaultAfterWritesTorn(k, torn)
				op.run(l, f)
				dev.ClearFault()
				l2, _ := open(dev)
				checkStoreMembers(t, l2, fmt.Sprintf("%s k=%d/%d torn=%d", op.name, k, writes, torn))
			}
		}
	}
}
