package ufs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
)

// sweepEntry is what one name holds: its inode, its type and, for a file its
// bytes, for a symlink its target.
type sweepEntry struct {
	ino  Ino
	typ  FileType
	data []byte
}

// sweepTree reads every name under the root, "." and ".." aside.
func sweepTree(t *testing.T, fs *FS) map[string]*sweepEntry {
	t.Helper()
	out := map[string]*sweepEntry{}
	var walk func(dir Ino, prefix string)
	walk = func(dir Ino, prefix string) {
		ents, err := fs.Readdir(dir)
		if err != nil {
			t.Fatalf("readdir %q: %v", prefix, err)
		}
		for _, e := range ents {
			st, err := fs.Stat(e.Ino)
			if err != nil {
				t.Fatalf("stat %q: %v", prefix+e.Name, err)
			}
			ent := &sweepEntry{ino: e.Ino, typ: st.Type}
			switch st.Type {
			case TypeDir:
				walk(e.Ino, prefix+e.Name+"/")
			case TypeSymlink:
				target, err := fs.Readlink(e.Ino)
				if err != nil {
					t.Fatalf("readlink %q: %v", prefix+e.Name, err)
				}
				ent.data = []byte(target)
			default:
				if ent.data, err = fs.ReadFile(e.Ino); err != nil {
					t.Fatalf("read %q: %v", prefix+e.Name, err)
				}
			}
			out[prefix+e.Name] = ent
		}
	}
	walk(fs.Root(), "")
	return out
}

// pathIno resolves a slash-separated path from the root.
func pathIno(fs *FS, path string) (Ino, error) {
	ino := fs.Root()
	for _, name := range strings.Split(path, "/") {
		var err error
		if ino, err = fs.Lookup(ino, name); err != nil {
			return 0, err
		}
	}
	return ino, nil
}

// fill is n bytes of a pattern that names the file and version it was written
// for, and holds no zero byte.
func fill(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i%13)
	}
	return p
}

// stale fills a file that sweepSetup removes; no file is ever given it.
const stale = 0xee

// sweepSetup builds the tree every case starts from, on a device small enough
// that the allocator has wrapped onto the blocks of a removed file: a block the
// call allocates holds that file's bytes until something writes it.
func sweepSetup(t *testing.T) (*disk.Device, *FS) {
	t.Helper()
	dev := disk.New(140)
	fs, err := Mkfs(dev, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	junk, err := fs.Create(root, "junk")
	must(err)
	must(fs.WriteFile(junk, bytes.Repeat([]byte{stale}, 120*BlockSize)))
	must(fs.Remove(root, "junk"))
	for _, f := range []struct {
		name string
		data []byte
	}{{"a", fill('a', 5000)}, {"big", fill('b', 12*BlockSize)}} {
		ino, err := fs.Create(root, f.name)
		must(err)
		must(fs.WriteFile(ino, f.data))
	}
	d, err := fs.Mkdir(root, "d")
	must(err)
	x, err := fs.Create(d, "x")
	must(err)
	must(fs.WriteFile(x, fill('x', 300)))
	_, err = fs.Mkdir(root, "e")
	must(err)
	h, err := fs.Create(root, "h")
	must(err)
	must(fs.Truncate(h, 8*BlockSize))
	_, err = fs.WriteAt(h, fill('h', 100), 0)
	must(err)
	return dev, fs
}

// sweepCalls is every exported mutating call, on the names sweepSetup made.
var sweepCalls = []struct {
	name string
	op   func(fs *FS) error
}{
	{"Create", func(fs *FS) error { _, err := fs.Create(fs.Root(), "n"); return err }},
	{"Mkdir", func(fs *FS) error { _, err := fs.Mkdir(fs.Root(), "m"); return err }},
	{"Link", func(fs *FS) error {
		a, err := pathIno(fs, "a")
		if err != nil {
			return err
		}
		return fs.Link(fs.Root(), "a2", a)
	}},
	{"Symlink", func(fs *FS) error { _, err := fs.Symlink(fs.Root(), "l", "a"); return err }},
	{"Remove", func(fs *FS) error { return fs.Remove(fs.Root(), "big") }},
	{"Rmdir", func(fs *FS) error { return fs.Rmdir(fs.Root(), "e") }},
	{"RenameFileSameDir", func(fs *FS) error { return fs.Rename(fs.Root(), "a", fs.Root(), "a3") }},
	{"RenameFileAcross", func(fs *FS) error {
		d, err := pathIno(fs, "d")
		if err != nil {
			return err
		}
		return fs.Rename(fs.Root(), "a", d, "a")
	}},
	{"RenameDirSameDir", func(fs *FS) error { return fs.Rename(fs.Root(), "d", fs.Root(), "d2") }},
	{"RenameDirAcross", func(fs *FS) error {
		d, err := pathIno(fs, "d")
		if err != nil {
			return err
		}
		return fs.Rename(fs.Root(), "e", d, "e")
	}},
	{"RenameOverName", func(fs *FS) error { return fs.Rename(fs.Root(), "a", fs.Root(), "big") }},
	{"WriteAtPastIndirect", func(fs *FS) error {
		a, err := pathIno(fs, "a")
		if err != nil {
			return err
		}
		_, err = fs.WriteAt(a, fill('A', 3*BlockSize), 9*BlockSize)
		return err
	}},
	{"WriteAtGrowIndirect", func(fs *FS) error {
		big, err := pathIno(fs, "big")
		if err != nil {
			return err
		}
		_, err = fs.WriteAt(big, fill('G', 2*BlockSize), 12*BlockSize)
		return err
	}},
	{"WriteAtOverwrite", func(fs *FS) error {
		big, err := pathIno(fs, "big")
		if err != nil {
			return err
		}
		_, err = fs.WriteAt(big, fill('B', 2*BlockSize), 100)
		return err
	}},
	{"WriteAtIntoHole", func(fs *FS) error {
		h, err := pathIno(fs, "h")
		if err != nil {
			return err
		}
		_, err = fs.WriteAt(h, fill('H', 2*BlockSize), 4*BlockSize+7)
		return err
	}},
	{"Truncate", func(fs *FS) error {
		big, err := pathIno(fs, "big")
		if err != nil {
			return err
		}
		return fs.Truncate(big, 11*BlockSize-5)
	}},
	{"WriteFileShorter", func(fs *FS) error {
		big, err := pathIno(fs, "big")
		if err != nil {
			return err
		}
		return fs.WriteFile(big, fill('W', 3*BlockSize+1))
	}},
	{"WriteFileLonger", func(fs *FS) error {
		a, err := pathIno(fs, "a")
		if err != nil {
			return err
		}
		return fs.WriteFile(a, fill('L', 14*BlockSize))
	}},
}

// sweepAllowed reports whether a name, after a crash and a remount, holds got
// given what it held before the call and after it (nil: absent): the name is
// in one of the two states, and every byte of a file is one it held before or
// after at that offset — never a byte it was not given — or a zero where the
// call cuts the file: a grown file shows what it grew by or nothing.
func sweepAllowed(got, before, after *sweepEntry) bool {
	if got == nil {
		return before == nil || after == nil
	}
	if bytes.IndexByte(got.data, stale) >= 0 {
		return false
	}
	sized := false
	for _, ref := range []*sweepEntry{before, after} {
		if ref == nil || ref.typ != got.typ || ref.ino != got.ino {
			continue
		}
		if got.typ != TypeFile {
			if bytes.Equal(ref.data, got.data) {
				return true
			}
			continue
		}
		sized = sized || len(ref.data) == len(got.data)
	}
	if !sized {
		return false
	}
	at := func(e *sweepEntry, i int) int {
		if e == nil || i >= len(e.data) {
			return -1
		}
		return int(e.data[i])
	}
	for i, b := range got.data {
		cut := after == nil || i >= len(after.data)
		if int(b) != at(before, i) && int(b) != at(after, i) && (b != 0 || !cut) {
			return false
		}
	}
	return true
}

// sweepInos is the set of inodes a tree names.
func sweepInos(tree map[string]*sweepEntry) map[Ino]bool {
	out := map[Ino]bool{}
	for _, e := range tree {
		out[e.ino] = true
	}
	return out
}

// TestCrashAtEveryWriteOfEveryCall power-fails the device at every write of
// every exported mutating call, the crashing write lost or torn, then
// remounts: Check must be clean, every name must be in its state before or
// after the call, nothing that outlives the call may be lost (a rename cut
// half-way still names what it moves), and no file may read a byte it was
// never given.
func TestCrashAtEveryWriteOfEveryCall(t *testing.T) {
	for _, call := range sweepCalls {
		t.Run(call.name, func(t *testing.T) {
			_, fs := sweepSetup(t)
			before := sweepTree(t, fs)
			if err := call.op(fs); err != nil {
				t.Fatal(err)
			}
			after := sweepTree(t, fs)
			beforeInos, afterInos := sweepInos(before), sweepInos(after)
			for _, torn := range []bool{false, true} {
				cases := 0
				for fired := true; fired; cases++ {
					dev, fs := sweepSetup(t)
					if torn {
						dev.FaultAfterWritesTorn(cases, 100)
					} else {
						dev.FaultAfterWrites(cases)
					}
					_ = call.op(fs)
					fired = dev.Faulted()
					dev.ClearFault()
					fs2, err := Mount(dev, nil)
					if err != nil {
						t.Fatalf("torn=%v crash after %d writes: remount: %v", torn, cases, err)
					}
					if probs, err := fs2.Check(); err != nil || len(probs) != 0 {
						t.Fatalf("torn=%v crash after %d writes: Check: %v %v", torn, cases, probs, err)
					}
					got := sweepTree(t, fs2)
					gotInos := sweepInos(got)
					for ino := range afterInos {
						if beforeInos[ino] && !gotInos[ino] {
							t.Fatalf("torn=%v crash after %d writes: inode %d, named before and after the call, is lost", torn, cases, ino)
						}
					}
					for _, m := range []map[string]*sweepEntry{before, after, got} {
						for path := range m {
							if !sweepAllowed(got[path], before[path], after[path]) {
								t.Fatalf("torn=%v crash after %d writes: %q holds %s", torn, cases, path, describe(got[path]))
							}
						}
					}
				}
				if cases < 2 {
					t.Fatalf("torn=%v: %s made no device write", torn, call.name)
				}
			}
		})
	}
}

func describe(e *sweepEntry) string {
	if e == nil {
		return "nothing"
	}
	return fmt.Sprintf("a %v of %d bytes, % x...", e.typ, len(e.data), e.data[:min(len(e.data), 16)])
}

// TestFailedFlushIsWrittenByTheNext: a Create whose flush fails — its
// directory block landed, its inode did not — leaves the running FS answering
// as the call left it, and the next call's flush writes what was left, so a
// mount of the device then agrees with the running FS without recovery's help.
func TestFailedFlushIsWrittenByTheNext(t *testing.T) {
	dev := disk.New(256)
	fs, err := Mkfs(dev, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	dev.FaultAfterWrites(1)
	if _, err := fs.Create(fs.Root(), "f"); err == nil {
		t.Fatal("the Create's flush did not fail")
	}
	dev.ClearFault()
	f, err := fs.Lookup(fs.Root(), "f")
	if err != nil {
		t.Fatalf("the running FS lost the name its failed call added: %v", err)
	}
	if _, err := fs.Stat(f); err != nil {
		t.Fatalf("the running FS names an inode it cannot read: %v", err)
	}
	if _, err := fs.Create(fs.Root(), "g"); err != nil {
		t.Fatal(err)
	}
	fs2 := newFS(dev.Snapshot(), fs.sb, nil) // a mount without its recovery
	want := sweepTree(t, fs)
	if got := sweepTree(t, fs2); len(got) != 2 || got["f"] == nil || got["g"] == nil || len(want) != 2 {
		t.Fatalf("a mount reads %v, the running FS %v", got, want)
	}
	checkClean(t, fs2)
}

// TestFailedWriteIntoHoleReadsZeros: a WriteAt into a hole whose data write
// fails has already pointed the file at a fresh block, which still holds a
// removed file's bytes on the device; the flush zeroes it, so the hole reads
// zeros — in the running FS and after a mount — never those bytes.
func TestFailedWriteIntoHoleReadsZeros(t *testing.T) {
	dev, fs := sweepSetup(t)
	h, err := pathIno(fs, "h")
	if err != nil {
		t.Fatal(err)
	}
	dev.ScriptFault(disk.FaultWriteError)
	if _, err := fs.WriteAt(h, fill('H', 10), 5*BlockSize); err == nil {
		t.Fatal("the data write did not fail")
	}
	fs2, err := Mount(dev.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*FS{fs, fs2} {
		p := make([]byte, BlockSize)
		if _, err := fs.ReadAt(h, p, 5*BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, zeroBlock) {
			t.Fatalf("the hole reads % x...", p[:16])
		}
	}
}

// TestFailedAppendKeepsWhatItWrote: a WriteAt that fails partway has changed
// the file as far as it got.  The size covers the block it wrote, so those
// bytes are not hidden past the end, and Mtime has moved, so an (Mtime,
// Ctime, Size) stamp taken before the call no longer vouches for the file.
func TestFailedAppendKeepsWhatItWrote(t *testing.T) {
	dev := disk.New(256)
	fs, err := Mkfs(dev, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, fill('a', BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	before, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	dev.FaultAfterWrites(1) // the append's first block lands, its second is lost
	n, err := fs.WriteAt(ino, fill('b', 3*BlockSize), BlockSize)
	if err == nil || n != BlockSize {
		t.Fatalf("the append wrote %d bytes, %v; want %d and an error", n, err, BlockSize)
	}
	dev.ClearFault()
	after, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != 2*BlockSize || after.Mtime <= before.Mtime {
		t.Fatalf("after the failed append: size %d, mtime %d; want %d and past %d", after.Size, after.Mtime, 2*BlockSize, before.Mtime)
	}
	checkClean(t, fs)
	p := make([]byte, BlockSize)
	if _, err := fs.ReadAt(ino, p, BlockSize); err != nil || !bytes.Equal(p, fill('b', BlockSize)) {
		t.Fatalf("the block the append wrote reads % x..., %v", p[:8], err)
	}
}

// TestSixteenBlockWriteAtDeviceWrites pins what a write of sixteen blocks into
// a fresh file costs: the sixteen data blocks, then once each the indirect
// block, the inode's table block and the block bitmap's block.
func TestSixteenBlockWriteAtDeviceWrites(t *testing.T) {
	dev := disk.New(1024)
	fs, err := Mkfs(dev, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Writes
	if _, err := fs.WriteAt(ino, fill('f', 16*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Writes - before; got != 16+1+1+1 {
		t.Fatalf("a 16-block WriteAt made %d device writes, want 19", got)
	}
}

// TestCrossDirectoryRenameLeavesNoStaleDotDot: a directory moved to a new
// parent has its ".." rewritten only after its old name is dropped.  Crashed
// at every device write of the move, lost or torn, the mounted volume names
// the directory from the parent its ".." points at, and Check is clean.
func TestCrossDirectoryRenameLeavesNoStaleDotDot(t *testing.T) {
	setup := func() (*disk.Device, *FS, Ino, Ino) {
		t.Helper()
		dev := disk.New(256)
		fs, err := Mkfs(dev, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fs.Mkdir(fs.Root(), "a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := fs.Mkdir(fs.Root(), "b")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Mkdir(a, "c"); err != nil {
			t.Fatal(err)
		}
		return dev, fs, a, b
	}
	for _, torn := range []bool{false, true} {
		cases := 0
		for fired := true; fired; cases++ {
			dev, fs, a, b := setup()
			if torn {
				dev.FaultAfterWritesTorn(cases, 100)
			} else {
				dev.FaultAfterWrites(cases)
			}
			_ = fs.Rename(a, "c", b, "c")
			fired = dev.Faulted()
			dev.ClearFault()
			tag := fmt.Sprintf("torn=%v crash after %d writes", torn, cases)
			fs2, err := Mount(dev, nil)
			if err != nil {
				t.Fatalf("%s: remount: %v", tag, err)
			}
			if probs, err := fs2.Check(); err != nil || len(probs) != 0 {
				t.Fatalf("%s: Check: %v %v", tag, probs, err)
			}
			c, err := fs2.Lookup(b, "c")
			if err != nil {
				if c, err = fs2.Lookup(a, "c"); err != nil {
					t.Fatalf("%s: the directory is named from neither parent", tag)
				}
			}
			up, err := fs2.Lookup(c, "..")
			if err != nil {
				t.Fatal(err)
			}
			if named, err := fs2.Lookup(up, "c"); err != nil || named != c {
				t.Fatalf("%s: the directory's \"..\" is %d, which does not name it (%d, %v)", tag, up, named, err)
			}
		}
		if cases < 3 {
			t.Fatalf("torn=%v: the rename made %d device writes", torn, cases-1)
		}
	}
}
