package ufs

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
)

// scanSlots is what one dirScanLocked pass reads of dir: each name and the
// slot and inode it holds.
func scanSlots(t *testing.T, fs *FS, dir Ino) map[string]ncEntry {
	t.Helper()
	got := map[string]ncEntry{}
	err := fs.dirScanLocked(dir, func(idx uint64, ino Ino, name []byte) bool {
		got[string(name)] = ncEntry{ino, idx}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStaleSlotFiresInvariant: a slot the DNLC remembers, or the one an add
// was given, is written without a walk, so under FICUS_INVARIANTS each is
// checked before its block is staged — a repoint's to hold the name and inode
// the DNLC gave, an add's to be free — and a wrong one stops the call with
// nothing written.
func TestStaleSlotFiresInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	for _, tc := range []struct {
		name string
		call func(fs *FS, a Ino, bslot uint64) error
	}{
		{"a remembered slot holding another name", func(fs *FS, a Ino, bslot uint64) error {
			fs.mu.Lock()
			fs.dnlc.put(ncKey{fs.Root(), "a"}, ncEntry{a, bslot})
			fs.mu.Unlock()
			return fs.Remove(fs.Root(), "a")
		}},
		{"an add given a taken slot", func(fs *FS, a Ino, bslot uint64) error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			return fs.dirAddLocked(fs.Root(), bslot, "c", a)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := newTestFS(t, 1024)
			a, err := fs.Create(fs.Root(), "a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Create(fs.Root(), "b"); err != nil {
				t.Fatal(err)
			}
			fs.mu.Lock()
			_, bslot, err := fs.dirFindLocked(fs.Root(), "b")
			fs.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			writes := fs.Device().Stats().Writes
			func() {
				defer func() {
					if _, ok := recover().(*invariant.Violation); !ok {
						t.Fatal("writing a stale slot raised no violation")
					}
				}()
				_ = tc.call(fs, a, bslot)
			}()
			if got := fs.Device().Stats().Writes - writes; got != 0 {
				t.Fatalf("the stopped call wrote %d blocks, want none", got)
			}
			fs.FlushCaches()
			for _, name := range []string{"a", "b"} {
				if _, err := fs.Lookup(fs.Root(), name); err != nil {
					t.Fatalf("%s after the stopped call: %v", name, err)
				}
			}
			if _, err := fs.Lookup(fs.Root(), "c"); err != ErrNotExist {
				t.Fatalf("c after the stopped call: %v, want ErrNotExist", err)
			}
			checkClean(t, fs)
		})
	}
}

// TestDirSlotsMatchScan drives 5 000 random naming calls over three
// directories against a model in which every new name takes the least free
// slot of its directory and keeps it until it is removed, and after each call
// holds the store to the model: every name's slot, as one scan reads it,
// is the model's; every DNLC entry names the inode and slot a scan finds; and
// Check is clean.  Tiny caches make DNLC, inode and buffer entries evict; the
// second run has the caches off.
func TestDirSlotsMatchScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"tiny caches", Options{sizes: cacheSizes{blocks: 8, inodes: 8, names: 8}}},
		{"caches off", Options{DisableCaches: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { dirSlotsMatchScan(t, &tc.opts) })
	}
}

// checkLent runs Check.  On a file system with its caches off it lends Check
// the buffer and inode caches, then empties them and turns them off again:
// the oracle reads each block once, and the calls under test still see no
// cache.
func checkLent(t *testing.T, fs *FS) {
	t.Helper()
	if !fs.bc.enabled {
		fs.bc.enabled, fs.ic.enabled = true, true
		defer func() {
			fs.FlushCaches()
			fs.bc.enabled, fs.ic.enabled = false, false
		}()
	}
	checkClean(t, fs)
}

// modelEntry is a name as the model holds it.
type modelEntry struct {
	slot uint64
	ino  Ino
	dir  bool
}

func dirSlotsMatchScan(t *testing.T, opts *Options) {
	fs, err := Mkfs(disk.New(256), 128, opts)
	if err != nil {
		t.Fatal(err)
	}
	// model holds every directory's names: the three the calls name in, and
	// the empty ones Mkdir makes there, whose ".." a Rename may repoint.
	model := map[Ino]map[string]modelEntry{}
	newDir := func(d, parent Ino) {
		model[d] = map[string]modelEntry{".": {0, d, true}, "..": {1, parent, true}}
	}
	leastFree := func(d Ino) uint64 {
		taken := map[uint64]bool{}
		for _, e := range model[d] {
			taken[e.slot] = true
		}
		s := uint64(0)
		for taken[s] {
			s++
		}
		return s
	}
	dirs := []Ino{fs.Root()}
	newDir(fs.Root(), fs.Root())
	for _, name := range []string{"A", "B"} {
		d, err := fs.Mkdir(fs.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		model[fs.Root()][name] = modelEntry{leastFree(fs.Root()), d, true}
		newDir(d, fs.Root())
		dirs = append(dirs, d)
	}
	rng := rand.New(rand.NewSource(65))
	pick := func() (Ino, string) {
		return dirs[rng.Intn(len(dirs))], fmt.Sprintf("n%02d", rng.Intn(30))
	}
	done := map[string]int{}
	for step := 0; step < 5000; step++ {
		d, name := pick()
		e, exists := model[d][name]
		var moved Ino // a directory given a new ".."
		var call string
		var err, want error
		switch op := rng.Intn(7); op {
		case 0, 1, 2:
			var ino Ino
			switch op {
			case 0:
				call = "Create"
				ino, err = fs.Create(d, name)
			case 1:
				call = "Mkdir"
				ino, err = fs.Mkdir(d, name)
			default:
				call = "Symlink"
				ino, err = fs.Symlink(d, name, "target")
			}
			if exists {
				want = ErrExist
			} else if err == nil {
				model[d][name] = modelEntry{leastFree(d), ino, op == 1}
				if op == 1 {
					newDir(ino, d)
				}
			}
		case 3: // a link to a non-directory named in any of the three
			td, tname := pick()
			target, ok := model[td][tname]
			if !ok || target.dir {
				continue
			}
			call = "Link"
			err = fs.Link(d, name, target.ino)
			if exists {
				want = ErrExist
			} else if err == nil {
				model[d][name] = modelEntry{leastFree(d), target.ino, false}
			}
		case 4, 5:
			if op == 4 {
				call = "Remove"
				err = fs.Remove(d, name)
			} else {
				call = "Rmdir"
				err = fs.Rmdir(d, name)
			}
			switch {
			case !exists:
				want = ErrNotExist
			case op == 4 && e.dir:
				want = ErrIsDir
			case op == 5 && !e.dir:
				want = ErrNotDir
			default:
				delete(model[d], name)
				if e.dir {
					delete(model, e.ino)
				}
			}
		default: // in one directory or across two, over a name or not
			dd, dname := pick()
			old, over := model[dd][dname]
			call = "Rename"
			switch {
			case !exists || d == dd && name == dname:
			case over && old.ino != e.ino:
				call = "Rename over a name"
			case d != dd:
				call = "Rename across directories"
			}
			err = fs.Rename(d, name, dd, dname)
			switch {
			case !exists:
				want = ErrNotExist
			case d == dd && name == dname:
			case over && old.ino == e.ino:
				delete(model[d], name)
			case over && old.dir:
				want = ErrExist
			case over && e.dir:
				want = ErrNotDir
			default:
				slot := old.slot
				if !over {
					slot = leastFree(dd)
				}
				delete(model[d], name)
				model[dd][dname] = modelEntry{slot, e.ino, e.dir}
				if e.dir {
					model[e.ino][".."] = modelEntry{1, dd, true}
					moved = e.ino
				}
			}
			name = fmt.Sprintf("%s to %d/%s", name, dd, dname)
		}
		what := fmt.Sprintf("step %d: %s %d/%s", step, call, d, name)
		if err != want {
			t.Fatalf("%s: %v, want %v", what, err, want)
		}
		if err == nil {
			done[call]++
		}
		fs.mu.Lock()
		scans := map[Ino]map[string]ncEntry{}
		scan := func(dir Ino) map[string]ncEntry {
			if scans[dir] == nil {
				scans[dir] = scanSlots(t, fs, dir)
			}
			return scans[dir]
		}
		// The three directories, and a directory the call moved, are held to
		// the model; Check holds every other directory's "..".
		for _, dir := range append(dirs[:3:3], moved) {
			if model[dir] == nil {
				continue
			}
			want := map[string]ncEntry{}
			for n, e := range model[dir] {
				want[n] = ncEntry{e.ino, e.slot}
			}
			if got := scan(dir); !maps.Equal(got, want) {
				fs.mu.Unlock()
				t.Fatalf("%s: directory %d scans as %v, the model holds %v", what, dir, got, want)
			}
		}
		fs.dnlc.lru.DropFunc(func(k ncKey, e ncEntry) bool {
			if got, ok := scan(k.dir)[k.name]; !ok || got != e {
				t.Errorf("%s: the DNLC remembers %d/%s as %v, a scan finds %v", what, k.dir, k.name, e, got)
			}
			return false
		})
		fs.mu.Unlock()
		if t.Failed() {
			t.FailNow()
		}
		checkLent(t, fs)
	}
	for _, call := range []string{"Create", "Mkdir", "Symlink", "Link", "Remove", "Rmdir", "Rename", "Rename over a name", "Rename across directories"} {
		if done[call] < 25 {
			t.Errorf("%d calls of %s succeeded, want at least 25: %v", done[call], call, done)
		}
	}
}

// TestNamingCallWalksOnce pins how many directory blocks a naming call reads,
// counted as buffer-cache gets with every cache warm and large enough to keep
// all it is given.  Two directories of full 15-slot blocks, 20 blocks (300
// slots: 298 names, "." and "..") and 25, isolate the walk: all else a call
// reads is the same in both, so what a call gets more in the larger one is
// what its walks of the five extra blocks get (each block, and its pointer
// in the indirect block).
//   - A Create of a new name walks its directory once, as a lookup of an
//     absent name does; its add extends the directory into a new block,
//     which nothing reads.
//   - A warm Remove reads only the block that holds its slot, the one its
//     DNLC entry names: removing the name in slot 35 (block 2) and the one in
//     slot 140 (block 9) costs the same gets.
func TestNamingCallWalksOnce(t *testing.T) {
	fs, err := Mkfs(disk.New(4096), 1024, &Options{sizes: cacheSizes{blocks: 2048, inodes: 2048, names: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	gets := func(call func() error) uint64 {
		t.Helper()
		before := fs.CacheStats()
		if err := call(); err != nil {
			t.Fatal(err)
		}
		after := fs.CacheStats()
		return after.BufferHits + after.BufferMisses - before.BufferHits - before.BufferMisses
	}
	var dirs [2]Ino
	for i, blocks := range []int{20, 25} {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", blocks))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < blocks*dirSlotsPerBlock-2; n++ {
			if _, err := fs.Create(d, fmt.Sprintf("f%03d", n)); err != nil {
				t.Fatal(err)
			}
		}
		if st, err := fs.Stat(d); err != nil || st.Size != uint64(blocks*dirSlotsPerBlock*dirSlotSize) {
			t.Fatalf("directory of %d blocks: %+v, %v", blocks, st, err)
		}
		dirs[i] = d
	}
	var walk, create [2]uint64
	for i, d := range dirs {
		walk[i] = gets(func() error {
			if _, err := fs.Lookup(d, "new"); err != ErrNotExist {
				return fmt.Errorf("lookup of an absent name: %v", err)
			}
			return nil
		})
	}
	for i, d := range dirs {
		create[i] = gets(func() error { _, err := fs.Create(d, "new"); return err })
	}
	if walk[1] <= walk[0] {
		t.Fatalf("a lookup walks %d gets in 20 blocks and %d in 25", walk[0], walk[1])
	}
	if got, want := create[1]-create[0], walk[1]-walk[0]; got != want {
		t.Errorf("five more directory blocks cost a Create %d more gets, a lookup walk %d: want one walk", got, want)
	}

	var remove [2]uint64
	for i, slot := range []int{35, 140} {
		name := fmt.Sprintf("f%03d", slot-2)
		ino, err := fs.Lookup(dirs[0], name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat(ino); err != nil {
			t.Fatal(err)
		}
		remove[i] = gets(func() error { return fs.Remove(dirs[0], name) })
	}
	if remove[0] != remove[1] {
		t.Errorf("a warm Remove reads %d blocks at slot 35 and %d at slot 140, want the same: only the slot's block", remove[0], remove[1])
	}
}
