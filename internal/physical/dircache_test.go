package physical

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
)

// refRenderedName and refFind are the definitions dirImage's index replaced:
// the name an entry is shown under worked out from the whole list each time,
// and a name found by rendering every entry until one matches.  Quadratic,
// obviously right, and what the index is held to.
func refRenderedName(entries []Entry, e Entry) string {
	first := true
	var min ids.FileID
	for _, o := range entries {
		if !o.Live() || o.Name != e.Name {
			continue
		}
		if first || eidLess(o.EID, min) {
			min = o.EID
			first = false
		}
	}
	if e.EID == min {
		return e.Name
	}
	return fmt.Sprintf("%s#%d.%d", e.Name, e.EID.Issuer, e.EID.Seq)
}

func refFind(entries []Entry, name string) int {
	return slices.IndexFunc(entries, func(e Entry) bool {
		return e.Live() && refRenderedName(entries, e) == name
	})
}

// TestDirImageIndexMatchesReference builds directories out of everything that
// makes rendering interesting — same-name conflicts of two and more entries,
// tombstones among them, a plain name that spells another entry's conflict
// name on either side of it, the empty name, entry ids out of order — and
// requires the index to answer as the reference does for every name in sight.
func TestDirImageIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 2000; round++ {
		var entries []Entry
		names := []string{"a", "b", "c", ""}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			e := Entry{
				EID:     ids.FileID{Issuer: ids.ReplicaID(1 + rng.Intn(3)), Seq: uint64(1 + rng.Intn(6))},
				Name:    names[rng.Intn(len(names))],
				Child:   ids.FileID{Issuer: 1, Seq: uint64(100 + i)},
				Kind:    KFile,
				Deleted: rng.Intn(4) == 0,
			}
			// Now and then a file literally named like a conflict rendering.
			if rng.Intn(4) == 0 {
				e.Name = fmt.Sprintf("%s#%d.%d", names[rng.Intn(3)], 1+rng.Intn(3), 1+rng.Intn(6))
			}
			entries = append(entries, e)
		}
		d := newDirImage(entries, nil, 0)
		ask := slices.Clone(names)
		live := 0
		for i, e := range entries {
			if !e.Live() {
				continue
			}
			live++
			want := refRenderedName(entries, e)
			if got := d.nameOf(e); got != want {
				t.Fatalf("round %d: entry %d rendered %q, reference %q\n%+v", round, i, got, want, entries)
			}
			ask = append(ask, want, e.Name, fmt.Sprintf("%s#%d.%d", e.Name, e.EID.Issuer, e.EID.Seq))
		}
		if d.live != live {
			t.Fatalf("round %d: live = %d, want %d", round, d.live, live)
		}
		for _, name := range ask {
			if got, want := d.find(name), refFind(entries, name); got != want {
				t.Fatalf("round %d: find(%q) = %d, reference %d\n%+v", round, name, got, want, entries)
			}
		}
	}
}

// TestWarmLookupAllocs pins what a warm name costs in allocations: the child
// vnode and its fid path, the directory's own fid path, the child's store name
// for the storage check, and the container's handle string (which the store
// formats without allocating only for the first hundred inodes, the root's
// among them: BenchmarkLookupWarm reads 4) — no decoding, no rendering.  At the
// parent of this change a Lookup among 50 entries allocated 62 times and a
// directory's Getattr 54 (32 entries) to 534 (512).  The armed invariant
// re-encodes the entries on every hit, so it is disarmed here.
func TestWarmLookupAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	dir, err := root.Mkdir("dir")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := dir.Create(fmt.Sprintf("f%03d", i), true); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := dir.Lookup("f025"); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("warm Lookup allocates %v times, want at most 5", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := dir.Getattr(); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("warm directory Getattr allocates %v times, want at most 3", n)
	}
}

// TestWritingToLentEntriesFiresInvariant: the cache lends its entries, so a
// borrower that writes to them corrupts every later answer.  Armed, the next
// hit notices.
func TestWritingToLentEntriesFiresInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("f"); err != nil { // a hit on honest entries passes
		t.Fatal(err)
	}
	cont, err := l.containerOf(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		t.Fatal(err)
	}
	d.entries[0].Deleted = true // what a mutating caller that skipped clone() would do
	mustViolate(t, func() { root.Lookup("f") })
}

// TestReadersRaceDirectoryMoves is for the race detector: readers of files
// under d/ resolve their data files — through the layer's caches, under its
// lock — while d is moved between parents, removed and made again, which
// flushes those caches under them.  What a read returns is not judged: between
// locating a file and reading it a reader holds no lock, by design, so a file
// removed in that window reads as whatever took its inode.
func TestReadersRaceDirectoryMoves(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	p1, err := root.Mkdir("p1")
	must(err)
	p2, err := root.Mkdir("p2")
	must(err)
	body := []byte("the bytes of d/f, eight KiB of them would read the same way")
	populate := func(parent vnode.Vnode) (files []vnode.Vnode) {
		d, err := parent.Mkdir("d")
		must(err)
		for _, name := range []string{"f", "g"} {
			f, err := d.Create(name, true)
			must(err)
			must(vnode.WriteFile(f, body))
			files = append(files, f)
		}
		must(d.Symlink("s", "f"))
		s, err := d.Lookup("s")
		must(err)
		return append(files, s)
	}
	files := populate(p1)

	stop := make(chan struct{})
	var mu sync.Mutex // guards files
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, len(body))
			var err error
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				f := files[(r+i)%len(files)]
				mu.Unlock()
				if a, _ := f.Getattr(); a.Type == vnode.VLnk {
					_, err = f.Readlink()
				} else {
					_, err = f.ReadAt(buf, 0)
				}
				if err == nil || errors.Is(err, io.EOF) {
					reads.Add(1)
				}
			}
		}(r)
	}
	for round := 0; round < 60; round++ {
		must(p1.Rename("d", p2, "d"))
		must(p2.Rename("d", p1, "d"))
		if round%6 != 5 {
			continue
		}
		// Remove d, collect its tombstone — which frees the container's
		// inode — and make it again.
		d, err := p1.Lookup("d")
		must(err)
		for _, name := range []string{"f", "g", "s"} {
			must(d.Remove(name))
		}
		must(p1.Rmdir("d"))
		ds, err := l.DirEntries(append(RootPath(), mustFid(t, p1)))
		must(err)
		var dead []ids.FileID
		for _, e := range ds.Entries {
			if e.Deleted {
				dead = append(dead, e.EID)
			}
		}
		_, err = l.DropTombstones(append(RootPath(), mustFid(t, p1)), dead)
		must(err)
		fresh := populate(p1)
		mu.Lock()
		files = fresh
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Error("no reader ever read a file; the test raced nothing")
	}
	if probs, err := l.Check(); err != nil || len(probs) != 0 {
		t.Fatalf("Check: %v %v", probs, err)
	}
}

// TestFileInfoLendsNoCachedVector: FileInfo reads a file's aux, and a child
// directory's attributes, through the aux cache, and what it returns is the
// caller's: changing the returned vector leaves the next answer — FileInfo's,
// and Getattr's, which reads the same cache — as it was.
func TestFileInfoLendsNoCachedVector(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, err := root.Create("f", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, err := root.Mkdir("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []vnode.Vnode{f, d} {
		a, err := v.Getattr()
		if err != nil {
			t.Fatal(err)
		}
		fid, _ := ids.ParseFileID(a.FileID)
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		want := st.Aux.VV.Clone()
		st.Aux.VV[1] += 1000
		st.Aux.VV[9] = 1
		again, err := l.FileInfo(RootPath(), fid)
		if err != nil || !again.Aux.VV.Equal(want) {
			t.Fatalf("%s: FileInfo after changing a returned vector: %v %v, want %v", fid, again.Aux.VV, err, want)
		}
		if b, err := v.Getattr(); err != nil || b.Mtime != a.Mtime {
			t.Fatalf("%s: Getattr after changing a returned vector: Mtime %d %v, want %d", fid, b.Mtime, err, a.Mtime)
		}
	}
}
