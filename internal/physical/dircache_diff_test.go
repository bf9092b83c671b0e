package physical

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// diffStep is one generated operation: it addresses everything by name, so it
// can be run on either layer, and returns everything the layer said.
type diffStep func(l *Layer) string

// diffGen generates operations from what one layer holds.
type diffGen struct {
	rng  *rand.Rand
	l    *Layer
	rseq uint64 // last sequence number "issued" by the pretended remote replicas
}

var diffNames = []string{"n0", "n1", "n2", "n3", "n4", "n5"}

// errStr renders an error by its errno where it has one: that is the contract.
func errStr(err error) string {
	if err == nil {
		return "ok"
	}
	if e := vnode.AsErrno(err); e != 0 {
		return e.Error()
	}
	return err.Error()
}

// diffWalk resolves a path of names from the root, returning the vnode, its
// fid path, and what the lookups said.
func diffWalk(l *Layer, path []string) (vnode.Vnode, []ids.FileID, string) {
	v, _ := l.Root()
	fids := RootPath()
	for _, name := range path {
		next, err := v.Lookup(name)
		if err != nil {
			return nil, nil, fmt.Sprintf("walk %s: %s", name, errStr(err))
		}
		a, err := next.Getattr()
		if err != nil {
			return nil, nil, fmt.Sprintf("walk %s: getattr: %s", name, errStr(err))
		}
		fid, _ := ids.ParseFileID(a.FileID)
		v, fids = next, append(fids, fid)
	}
	return v, fids, ""
}

// describe is a vnode as its owner sees it.
func describe(v vnode.Vnode, err error) string {
	if err != nil {
		return errStr(err)
	}
	a, err := v.Getattr()
	a.Ctime = 0 // the substrate's clock
	return fmt.Sprintf("%s %+v %s", v.Handle(), a, errStr(err))
}

// randomDir walks down from the root a random number of levels through the
// directories this replica stores.
func (g *diffGen) randomDir() []string {
	var path []string
	dir, _ := g.l.Root()
	for g.rng.Intn(3) != 0 {
		ents, err := dir.Readdir()
		if err != nil {
			break
		}
		var subs []string
		for _, e := range ents {
			if e.Type == vnode.VDir {
				subs = append(subs, e.Name)
			}
		}
		if len(subs) == 0 {
			break
		}
		name := subs[g.rng.Intn(len(subs))]
		next, err := dir.Lookup(name)
		if err != nil {
			break // named here, stored elsewhere
		}
		dir, path = next, append(path, name)
	}
	return path
}

// aName is a name to ask a directory about: from the pool, one the directory
// renders right now (conflict renderings among them), or one spelt like a
// conflict rendering that may or may not exist.
func (g *diffGen) aName(path []string) string {
	switch g.rng.Intn(4) {
	case 0:
		if dir, _, _ := diffWalk(g.l, path); dir != nil {
			if ents, _ := dir.Readdir(); len(ents) > 0 {
				return ents[g.rng.Intn(len(ents))].Name
			}
		}
	case 1:
		return fmt.Sprintf("%s#%d.%d", diffNames[g.rng.Intn(len(diffNames))], 2+g.rng.Intn(2), g.rseq+uint64(g.rng.Intn(3)))
	}
	return diffNames[g.rng.Intn(len(diffNames))]
}

// inDir wraps an operation on one directory: resolve it, run, and report the
// directory's entries and vector afterwards.
func inDir(path []string, what string, op func(l *Layer, dir vnode.Vnode, fids []ids.FileID) string) diffStep {
	return func(l *Layer) string {
		dir, fids, said := diffWalk(l, path)
		if dir == nil {
			return what + ": " + said
		}
		out := what + " in /" + strings.Join(path, "/") + ": " + op(l, dir, fids)
		ds, err := l.DirEntries(fids)
		return fmt.Sprintf("%s\n  then %+v vv=%s %s", out, ds.Entries, ds.VV, errStr(err))
	}
}

// fileAnswer is what the replication read path says of file fid in dirPath:
// FileInfo, and the request a pull of it would send and what it would
// advertise of its version.
func fileAnswer(l *Layer, dirPath []ids.FileID, fid ids.FileID) string {
	st, err := l.FileInfo(dirPath, fid)
	base := DeltaBase{}
	req, local, rerr := l.PullRequestFor(dirPath, fid, base)
	return fmt.Sprintf("%s: info %+v %s; request %v %v local %v %s; advertises %v", fid, st, errStr(err), req.HasLocal, req.LocalVV, local, errStr(rerr), base.Have())
}

// fileAnswers is fileAnswer of every live entry of every stored directory.
func fileAnswers(l *Layer) []string {
	var out []string
	var walk func(dirPath []ids.FileID)
	walk = func(dirPath []ids.FileID) {
		ds, err := l.DirEntries(dirPath)
		if err != nil {
			return
		}
		for _, e := range ds.Entries {
			if !e.Live() {
				continue
			}
			out = append(out, fileAnswer(l, dirPath, e.Child))
			if e.Kind.IsDir() {
				walk(append(slices.Clone(dirPath), e.Child))
			}
		}
	}
	walk(RootPath())
	return out
}

// next is one operation, followed by what the replication read path says of
// the files it was about (fileAnswer of each live entry named name or name2).
func (g *diffGen) next() diffStep {
	path := g.randomDir()
	name, name2 := g.aName(path), g.aName(path)
	op := g.op(path, name, name2)
	return func(l *Layer) string {
		lines := []string{op(l)}
		base, _, _ := strings.Cut(name, "#")
		base2, _, _ := strings.Cut(name2, "#")
		if _, fids, _ := diffWalk(l, path); fids != nil {
			ds, _ := l.DirEntries(fids)
			for _, e := range ds.Entries {
				if e.Live() && (e.Name == base || e.Name == base2) {
					lines = append(lines, fileAnswer(l, fids, e.Child))
				}
			}
		}
		return strings.Join(lines, "\n  ")
	}
}

func (g *diffGen) op(path []string, name, name2 string) diffStep {
	switch k := g.rng.Intn(100); {
	case k < 12:
		return inDir(path, "lookup "+name, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return describe(dir.Lookup(name))
		})
	case k < 18:
		return inDir(path, "readdir", func(l *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			ents, err := dir.Readdir()
			_, rerr := l.Resolve(dir.Handle())
			return fmt.Sprintf("%+v %s; self %s; resolve %s", ents, errStr(err), describe(dir, nil), errStr(rerr))
		})
	case k < 30:
		excl := g.rng.Intn(2) == 0
		return inDir(path, fmt.Sprintf("create %s excl=%v", name, excl), func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return describe(dir.Create(name, excl))
		})
	case k < 37:
		return inDir(path, "mkdir "+name, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return describe(dir.Mkdir(name))
		})
	case k < 40:
		return inDir(path, "symlink "+name, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return errStr(dir.Symlink(name, "../"+name2))
		})
	case k < 44:
		return inDir(path, "link "+name+" as "+name2, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			target, err := dir.Lookup(name)
			if err != nil {
				return "target: " + errStr(err)
			}
			return errStr(dir.Link(name2, target))
		})
	case k < 52:
		return inDir(path, "remove "+name, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return errStr(dir.Remove(name))
		})
	case k < 57:
		return inDir(path, "rmdir "+name, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return errStr(dir.Rmdir(name))
		})
	case k < 63:
		return inDir(path, "rename "+name+" to "+name2, func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			return errStr(dir.Rename(name, dir, name2))
		})
	case k < 70:
		to := g.randomDir()
		return inDir(path, fmt.Sprintf("rename %s to /%s/%s", name, strings.Join(to, "/"), name2), func(l *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			dst, dfids, said := diffWalk(l, to)
			if dst == nil {
				return "destination: " + said
			}
			err := dir.Rename(name, dst, name2)
			ds, derr := l.DirEntries(dfids)
			return fmt.Sprintf("%s; destination then %+v vv=%s %s", errStr(err), ds.Entries, ds.VV, errStr(derr))
		})
	case k < 75:
		off, data := int64(g.rng.Intn(9000)), []byte(fmt.Sprintf("written-%d", g.rng.Int()))
		return inDir(path, fmt.Sprintf("write %s at %d", name, off), func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			f, err := dir.Lookup(name)
			if err != nil {
				return "file: " + errStr(err)
			}
			n, err := f.WriteAt(data, off)
			body, rerr := vnode.ReadFile(f)
			return fmt.Sprintf("%d %s; now %d bytes %s; %s", n, errStr(err), len(body), errStr(rerr), describe(f, nil))
		})
	case k < 77:
		size := uint64(g.rng.Intn(9000))
		return inDir(path, fmt.Sprintf("truncate %s to %d", name, size), func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			f, err := dir.Lookup(name)
			if err != nil {
				return "file: " + errStr(err)
			}
			return fmt.Sprintf("%s; %s", errStr(f.Truncate(size)), describe(f, nil))
		})
	case k < 79:
		mode := uint16(g.rng.Intn(0o1000))
		return inDir(path, fmt.Sprintf("chmod %s %o", name, mode), func(_ *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			f, err := dir.Lookup(name)
			if err != nil {
				return "file: " + errStr(err)
			}
			return fmt.Sprintf("%s; %s", errStr(f.Setattr(vnode.SetAttr{Mode: &mode})), describe(f, nil))
		})
	case k < 83:
		// An install from a pretended peer: over a stored copy under a
		// dominating vector, or the first copy of a file only named here.
		data := []byte(fmt.Sprintf("installed-%d", g.rng.Int()))
		return inDir(path, "install "+name, func(l *Layer, dir vnode.Vnode, fids []ids.FileID) string {
			ds, err := l.DirEntries(fids)
			if err != nil {
				return errStr(err)
			}
			i := slices.IndexFunc(ds.Entries, func(e Entry) bool { return e.Live() && e.Name == name && !e.Kind.IsDir() })
			if i < 0 {
				return "no such file entry"
			}
			fid, to := ds.Entries[i].Child, vv.Vector{}
			if st, err := l.FileInfo(fids, fid); err == nil {
				to = st.Aux.VV
			}
			err = l.InstallFileVersion(fids, fid, ds.Entries[i].Kind, data, to.Bump(2), 1)
			return fmt.Sprintf("%s; %s", errStr(err), describe(dir.Lookup(name)))
		})
	case k < 91:
		// A peer's view of the directory: some of ours deleted there, and
		// insertions of its own — under names we also hold (conflicts), under
		// a name spelt like a conflict rendering, and directories, which the
		// merge names and EnsureDirStored then stores.
		var theirs []Entry
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			e := Entry{EID: ids.FileID{Issuer: ids.ReplicaID(2 + g.rng.Intn(2)), Seq: g.rseq + 1},
				Name: g.aName(path), Child: ids.FileID{Issuer: 2, Seq: g.rseq + 2}, Kind: KFile}
			g.rseq += 2
			if g.rng.Intn(4) == 0 {
				e.Kind = KDir
			}
			theirs = append(theirs, e)
		}
		kill := g.rng.Intn(3) == 0
		return inDir(path, fmt.Sprintf("merge %+v kill %s=%v", theirs, name, kill), func(l *Layer, dir vnode.Vnode, fids []ids.FileID) string {
			ds, err := l.DirEntries(fids)
			if err != nil {
				return errStr(err)
			}
			for i := range ds.Entries {
				if kill && ds.Entries[i].Name == name {
					ds.Entries[i].Deleted = true
				}
			}
			ds.Entries = append(ds.Entries, theirs...)
			ds.VV = ds.VV.Bump(2)
			res, err := l.ApplyDirMerge(fids, ds)
			out := fmt.Sprintf("%+v %s", res, errStr(err))
			for _, e := range theirs {
				if e.Kind.IsDir() {
					out += "; ensure " + errStr(l.EnsureDirStored(fids, e.Child, Aux{Type: KDir}))
				}
			}
			return out
		})
	case k < 94:
		g.rseq++
		e := Entry{Name: fmt.Sprintf("r%08x", g.rseq), Child: ids.FileID{Issuer: 9, Seq: g.rseq}, Kind: KFile, Value: "site-" + name}
		return inDir(path, "append "+e.Name, func(l *Layer, _ vnode.Vnode, fids []ids.FileID) string {
			return errStr(l.AppendEntry(fids, e))
		})
	case k < 96:
		// The scrubber reseals every stale sidecar, then every file's
		// attributes are asked for again.
		return inDir(path, "scrub", func(l *Layer, dir vnode.Vnode, _ []ids.FileID) string {
			err := l.ScrubPass()
			out := fmt.Sprintf("%s %+v", errStr(err), l.IntegrityStats())
			ents, _ := dir.Readdir()
			for _, e := range ents {
				out += "; " + describe(dir.Lookup(e.Name))
			}
			return out
		})
	default:
		keep := g.rng.Intn(3)
		return inDir(path, "drop tombstones", func(l *Layer, _ vnode.Vnode, fids []ids.FileID) string {
			ds, err := l.DirEntries(fids)
			if err != nil {
				return errStr(err)
			}
			var dead []ids.FileID
			for i, e := range ds.Entries {
				if e.Deleted && i%3 != keep {
					dead = append(dead, e.EID)
				}
			}
			n, err := l.DropTombstones(fids, dead)
			return fmt.Sprintf("%d of %d %s", n, len(dead), errStr(err))
		})
	}
}

// TestCachedLayerMatchesFlushedLayer drives one seeded sequence of every
// operation that reads or commits a directory, or writes a file's aux or
// sidecar (WriteAt, Truncate, Setattr, installs, scrubs), against two layers on equal
// disks, one of which has its caches flushed before every operation and so
// answers from the store each time: results, errnos, handles, the directory
// afterwards, FileInfo and PullRequestFor's request and advertisement of the files the
// operation named, and every so often the whole tree, every entry's FileInfo
// and advertisement and Check's findings, must be the same.  Whatever the
// caches remember wrongly — a name rendered before the conflict that renames
// it, an entry list a failed or refused operation had begun to change, a
// container since removed — shows as a difference.
func TestCachedLayerMatchesFlushedLayer(t *testing.T) {
	ops := 6000
	if testing.Short() {
		ops = 1200
	}
	cached, _ := newLayer(t, 1)
	flushed, _ := newLayer(t, 1)
	g := &diffGen{rng: rand.New(rand.NewSource(23)), l: cached, rseq: 100}
	whole := func(at int) {
		t.Helper()
		flushed.FlushCaches()
		if d := firstDiff(nameAnswers(cached), nameAnswers(flushed), "cached", "flushed"); d != "" {
			t.Fatalf("after %d ops the trees differ: %s", at, d)
		}
		flushed.FlushCaches()
		if d := firstDiff(fileAnswers(cached), fileAnswers(flushed), "cached", "flushed"); d != "" {
			t.Fatalf("after %d ops the files' attributes differ: %s", at, d)
		}
		pc, errc := cached.Check()
		pf, errf := flushed.Check()
		if errc != nil || errf != nil || !slices.Equal(pc, pf) {
			t.Fatalf("after %d ops Check differs:\n  cached:  %v %v\n  flushed: %v %v", at, pc, errc, pf, errf)
		}
	}
	refused, conflictNames := 0, 0
	for i := 0; i < ops; i++ {
		step := g.next()
		flushed.FlushCaches()
		got, want := step(cached), step(flushed)
		if got != want {
			t.Fatalf("op %d:\n  cached:  %s\n  flushed: %s", i, got, want)
		}
		said, _, _ := strings.Cut(got, "\n")
		if strings.Contains(said, "vnode: ") {
			refused++
		} else if strings.HasPrefix(said, "lookup") && strings.Contains(said, "#") {
			conflictNames++
		}
		if i%500 == 499 {
			whole(i + 1)
		}
	}
	whole(ops)
	t.Logf("%d ops, %d of them refused with an errno, %d lookups of a #issuer.seq name that resolved; %d answers in the final tree",
		ops, refused, conflictNames, len(nameAnswers(cached)))
	if refused == 0 || conflictNames == 0 {
		t.Error("the sequence never had an operation refused, or never resolved a conflict rendering: it has lost its point")
	}
}
