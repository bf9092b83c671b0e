package physical

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// dirOfSize formats a store with room for n files and returns its layer and
// the root directory, holding n of them.
func dirOfSize(tb testing.TB, n int) (*Layer, vnode.Vnode) {
	tb.Helper()
	fs, err := ufs.Mkfs(disk.New(65536), 16384, nil)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		tb.Fatal(err)
	}
	root, err := l.Root()
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := root.Create(fmt.Sprintf("f%04d", i), true); err != nil {
			tb.Fatal(err)
		}
	}
	return l, root
}

// createRemove is one warm Create+Remove pair: two directory commits.
func createRemove(tb testing.TB, dir vnode.Vnode) {
	if _, err := dir.Create("x", true); err != nil {
		tb.Fatal(err)
	}
	if err := dir.Remove("x"); err != nil {
		tb.Fatal(err)
	}
}

// TestDirCommitAllocsIndependentOfSize: a directory commit changes the cached
// image in place, so what a warm Create+Remove pair allocates does not grow
// with the directory.  Twenty pairs stay inside the journal's room before it
// compacts, in both directories; a compaction, which rewrites the snapshot, is
// O(directory) by design and is not what is measured.
func TestDirCommitAllocsIndependentOfSize(t *testing.T) {
	defer invariant.ForceForTest(false)()
	allocs := map[int]float64{}
	for _, n := range []int{32, 1024} {
		l, root := dirOfSize(t, n)
		createRemove(t, root)
		l.mu.Lock()
		cont, err := l.containerOf(RootPath())
		if err != nil {
			t.Fatal(err)
		}
		d, err := l.dirLocked(cont)
		if err != nil {
			t.Fatal(err)
		}
		end := d.end
		l.mu.Unlock()
		allocs[n] = testing.AllocsPerRun(20, func() { createRemove(t, root) })
		l.mu.Lock()
		d, err = l.dirLocked(cont)
		l.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if d.end <= end {
			t.Fatalf("%d entries: the pairs compacted the journal; the measurement is not of appends", n)
		}
	}
	if allocs[32] != allocs[1024] {
		t.Errorf("a Create+Remove pair allocates %v times in a 32-entry directory, %v in a 1024-entry one", allocs[32], allocs[1024])
	}
	t.Logf("a warm Create+Remove pair allocates %v times", allocs[32])
}

// BenchmarkDirCommit is a warm Create+Remove pair — two directory commits —
// in a directory of n live entries.  The tombstones the pairs leave are
// collected every 256 pairs outside the timer, so the directory stays near its
// size whatever b.N; the journal compactions the pairs cause are measured.
func BenchmarkDirCommit(b *testing.B) {
	for _, n := range []int{32, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			l, root := dirOfSize(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					collectTombstones(b, l)
					b.StartTimer()
				}
				createRemove(b, root)
			}
		})
	}
}

// collectTombstones drops every tombstone of the root directory.
func collectTombstones(tb testing.TB, l *Layer) {
	tb.Helper()
	ds, err := l.DirEntries(RootPath())
	if err != nil {
		tb.Fatal(err)
	}
	var dead []ids.FileID
	for _, e := range ds.Entries {
		if e.Deleted {
			dead = append(dead, e.EID)
		}
	}
	if _, err := l.DropTombstones(RootPath(), dead); err != nil {
		tb.Fatal(err)
	}
}

// checkImageIsReplay fails unless the image cached for the directory at path,
// if any, is what replaying its contents file gives: entries, index, live
// count, append offset and snapshot length.
func checkImageIsReplay(t *testing.T, tag string, l *Layer, path []ids.FileID) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(path)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	d, ok := l.dirs.Get(cont.Handle())
	if !ok {
		return
	}
	entries, end, err := l.readDirFileLocked(cont)
	if err != nil {
		t.Fatalf("%s: replay: %v", tag, err)
	}
	want := newDirImage(entries, end)
	switch {
	case !slices.Equal(d.entries, want.entries):
		t.Fatalf("%s: cached entries\n%v\nreplay\n%v", tag, d.entries, want.entries)
	case !maps.Equal(d.least, want.least):
		t.Fatalf("%s: cached least %v, replay %v", tag, d.least, want.least)
	case !maps.Equal(d.byName, want.byName):
		t.Fatalf("%s: cached byName %v, replay %v", tag, d.byName, want.byName)
	case d.live != want.live || d.end != want.end || d.snap != want.snap:
		t.Fatalf("%s: cached live/end/snap %d/%d/%d, replay %d/%d/%d", tag, d.live, d.end, d.snap, want.live, want.end, want.snap)
	}
}

// cachedDir is the image the cache holds for the directory at path, or nil.
func cachedDir(t *testing.T, l *Layer, path []ids.FileID) *dirImage {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(path)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := l.dirs.Get(cont.Handle())
	return d
}

// TestInPlaceDirImageMatchesReplay drives a seeded run of every directory
// writer — Create, Remove, Rename within and across directories, Link,
// ApplyDirMerge and DropTombstones — over the root and a subdirectory, long
// enough that the root's journal compacts, with one device write failed on
// the way.  After every step the image the cache holds for each is the one a
// replay of its contents file gives; a commit that lands keeps the cached
// image (it changed it in place), and the failed one leaves it dropped and as
// it was.
func TestInPlaceDirImageMatchesReplay(t *testing.T) {
	l, dev := newLayer(t, 1)
	remote, _ := newLayer(t, 2)
	root, _ := l.Root()
	rroot, _ := remote.Root()
	sub, err := root.Mkdir("sub")
	if err != nil {
		t.Fatal(err)
	}
	subPath := append(RootPath(), mustFid(t, sub))
	rng := rand.New(rand.NewSource(1))
	name := func() string { return fmt.Sprintf("n%02d", rng.Intn(24)) }
	compactions, merges, dropped := 0, 0, 0
	const steps, faultAt = 3000, 1500
	for step := 0; step < steps; step++ {
		op := rng.Intn(29) // of 29: 10 creates, 9 removes, 4 renames, 3 across, 2 links, 1 merge
		if step%400 == 399 {
			op = 29 // a drop: rare, as it compacts too
		}
		dir, dirPath := root, RootPath()
		if op < 28 && rng.Intn(4) == 0 {
			dir, dirPath = sub, subPath
		}
		for _, d := range []vnode.Vnode{root, sub} {
			if _, err := d.Readdir(); err != nil { // both images cached
				t.Fatal(err)
			}
		}
		was := [2]*dirImage{cachedDir(t, l, RootPath()), cachedDir(t, l, subPath)}
		before := cachedDir(t, l, dirPath)
		kept, end := slices.Clone(before.entries), before.end
		var what string
		var opErr error
		switch {
		case step == faultAt:
			// A remove's first device write is its record: failed, the
			// commit fails before it has changed anything.
			what = "remove, its record write failed"
			live := ""
			for _, e := range before.entries {
				if e.Live() && !e.Kind.IsDir() {
					live = before.nameOf(e)
					break
				}
			}
			dev.FaultAfterWrites(0)
			opErr = dir.Remove(live)
			if !dev.Faulted() || opErr == nil {
				t.Fatalf("step %d: the injected fault did not fail the remove of %q (%v)", step, live, opErr)
			}
			dev.ClearFault()
			if cachedDir(t, l, dirPath) == before || !slices.Equal(before.entries, kept) || before.end != end {
				t.Fatalf("step %d: a failed commit left its image cached or changed", step)
			}
		case op < 10:
			what = "create"
			_, opErr = dir.Create(name(), true)
		case op < 19:
			what = "remove"
			opErr = dir.Remove(name())
		case op < 23:
			what = "rename"
			opErr = dir.Rename(name(), dir, name())
		case op < 26:
			what = "rename across"
			other := sub
			if dir == sub {
				other = root
			}
			opErr = dir.Rename(name(), other, name())
		case op < 28:
			what = "link"
			var target vnode.Vnode
			if target, opErr = dir.Lookup(name()); opErr == nil && !isDir(target) {
				opErr = dir.Link(name(), target)
			}
		case op == 28:
			what = "merge"
			if _, err := rroot.Create(fmt.Sprintf("r%03d", step), true); err != nil {
				t.Fatal(err)
			}
			rroot.Remove(fmt.Sprintf("r%03d", step-9*rng.Intn(4))) // may name nothing
			ds, err := remote.DirEntries(RootPath())
			if err != nil {
				t.Fatal(err)
			}
			var res MergeResult
			if res, opErr = l.ApplyDirMerge(RootPath(), ds); res.Changed() {
				merges++
			}
		default:
			what = "drop tombstones"
			ds, err := l.DirEntries(dirPath)
			if err != nil {
				t.Fatal(err)
			}
			var dead []ids.FileID
			for _, e := range ds.Entries {
				if e.Deleted && rng.Intn(2) == 0 {
					dead = append(dead, e.EID)
				}
			}
			var n int
			n, opErr = l.DropTombstones(dirPath, dead)
			dropped += n
		}
		tag := fmt.Sprintf("step %d (%s, %v)", step, what, opErr)
		if opErr == nil {
			for i, path := range [][]ids.FileID{RootPath(), subPath} {
				if now := cachedDir(t, l, path); now != was[i] {
					t.Fatalf("%s: the commit replaced a cached image", tag)
				}
			}
			if what != "drop tombstones" && before.end < end {
				compactions++
			}
		}
		checkImageIsReplay(t, tag, l, RootPath())
		checkImageIsReplay(t, tag, l, subPath)
	}
	if compactions == 0 || merges == 0 || dropped == 0 {
		t.Fatalf("the run never compacted (%d), merged a change (%d) or dropped a tombstone (%d)", compactions, merges, dropped)
	}
	t.Logf("%d compactions, %d changing merges, %d tombstones dropped", compactions, merges, dropped)
}

func isDir(v vnode.Vnode) bool {
	a, err := v.Getattr()
	return err == nil && a.Type == vnode.VDir
}

// TestSnapshotIsTheFold: a compaction encodes its snapshot straight from the
// image and the changed entries, without folding them together first, and
// that is the snapshot of the fold — for random directories, random upserts
// (some of one id twice, some of ids the directory holds) and random
// collected tombstones.
func TestSnapshotIsTheFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entry := func() Entry {
		return Entry{EID: fid(ids.ReplicaID(1+rng.Intn(3)), uint64(rng.Intn(12))), Name: fmt.Sprintf("e%d", rng.Intn(9)),
			Child: fid(1, uint64(rng.Intn(99))), Kind: KFile, Deleted: rng.Intn(3) == 0}
	}
	for i := 0; i < 2000; i++ {
		var entries, up []Entry
		for n := rng.Intn(20); n > 0; n-- {
			entries = upsertEntry(entries, entry())
		}
		for n := rng.Intn(6); n > 0; n-- {
			up = append(up, entry())
		}
		drop := map[ids.FileID]bool{}
		for _, e := range entries {
			if rng.Intn(2) == 0 {
				drop[e.EID] = true
			}
		}
		fold := slices.Clone(entries)
		for _, e := range up {
			fold = upsertEntry(fold, e)
		}
		fold = slices.DeleteFunc(fold, func(e Entry) bool { return e.Deleted && drop[e.EID] })
		slices.SortStableFunc(up, func(a, b Entry) int { return cmpEID(a.EID, b.EID) })
		if got, want := appendSnapshot(nil, entries, up, drop), encodeEntries(fold); !bytes.Equal(got, want) {
			t.Fatalf("case %d: snapshot of\n%v\nupserting %v, dropping %v:\n%x\nthe fold's:\n%x", i, entries, up, drop, got, want)
		}
	}
}
