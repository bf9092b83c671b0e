package ufs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
)

func newTestFS(t *testing.T, blocks int) *FS {
	t.Helper()
	fs, err := Mkfs(disk.New(blocks), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func checkClean(t *testing.T, fs *FS) {
	t.Helper()
	probs, err := fs.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(probs) != 0 {
		t.Fatalf("fsck found problems:\n%s", strings.Join(probs, "\n"))
	}
}

func TestMkfsAndRoot(t *testing.T) {
	fs := newTestFS(t, 1024)
	st, err := fs.Stat(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != TypeDir || st.Nlink != 2 {
		t.Fatalf("root stat %+v", st)
	}
	ents, err := fs.Readdir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("fresh root has entries: %v", ents)
	}
	checkClean(t, fs)
}

func TestMkfsTooSmall(t *testing.T) {
	if _, err := Mkfs(disk.New(4), 512, nil); err == nil {
		t.Fatal("expected error for tiny device")
	}
}

func TestMountBadMagic(t *testing.T) {
	if _, err := Mount(disk.New(64), nil); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("err = %v, want ErrNotMounted", err)
	}
}

func TestMountWrongSize(t *testing.T) {
	d := disk.New(256)
	if _, err := Mkfs(d, 64, nil); err != nil {
		t.Fatal(err)
	}
	small := disk.New(64)
	// Copy superblock to a differently-sized device.
	blk := make([]byte, BlockSize)
	if err := d.Read(0, blk); err != nil {
		t.Fatal(err)
	}
	if err := small.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(small, nil); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := newTestFS(t, 1024)
	ino, err := fs.Create(fs.Root(), "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox")
	if _, err := fs.WriteAt(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := fs.ReadAt(ino, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	st, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != uint64(len(data)) || st.Type != TypeFile || st.Nlink != 1 {
		t.Fatalf("stat %+v", st)
	}
	checkClean(t, fs)
}

func TestPersistenceAcrossRemount(t *testing.T) {
	dev := disk.New(1024)
	fs, err := Mkfs(dev, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := fs.Mkdir(fs.Root(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, []byte("persistent")); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir2, err := fs2.Lookup(fs2.Root(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	ino2, err := fs2.Lookup(dir2, "f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile(ino2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persistent" {
		t.Fatalf("read %q", got)
	}
	checkClean(t, fs2)
}

func TestLargeFileThroughIndirects(t *testing.T) {
	// Write past the direct and single-indirect zones.
	fs := newTestFS(t, (NDirect+PtrsPerBlock+64)+256)
	ino, err := fs.Create(fs.Root(), "big")
	if err != nil {
		t.Fatal(err)
	}
	// Touch one block in each zone plus verify contents.
	offsets := []int64{
		0,                                        // direct
		(NDirect - 1) * BlockSize,                // last direct
		NDirect * BlockSize,                      // first single-indirect
		(NDirect + 100) * BlockSize,              // mid single-indirect
		(NDirect + PtrsPerBlock) * BlockSize,     // first double-indirect
		(NDirect + PtrsPerBlock + 5) * BlockSize, // inside double-indirect
	}
	for i, off := range offsets {
		tag := []byte(fmt.Sprintf("zone-%d", i))
		if _, err := fs.WriteAt(ino, tag, off); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	for i, off := range offsets {
		want := fmt.Sprintf("zone-%d", i)
		got := make([]byte, len(want))
		if _, err := fs.ReadAt(ino, got, off); err != nil && err != io.EOF {
			t.Fatalf("read at %d: %v", off, err)
		}
		if string(got) != want {
			t.Fatalf("at %d: read %q, want %q", off, got, want)
		}
	}
	// Holes between the zones read as zeros.
	hole := make([]byte, 64)
	if _, err := fs.ReadAt(ino, hole, BlockSize*3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 64)) {
		t.Fatal("hole not zero")
	}
	checkClean(t, fs)

	// Truncate back to one block frees everything else.
	before, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ino, BlockSize); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if after.FreeBlocks <= before.FreeBlocks {
		t.Fatalf("truncate freed nothing: before %d, after %d", before.FreeBlocks, after.FreeBlocks)
	}
	checkClean(t, fs)
}

func TestTruncateGrowIsSparse(t *testing.T) {
	fs := newTestFS(t, 256)
	ino, err := fs.Create(fs.Root(), "sparse")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := fs.Statfs()
	fs.mu.Lock()
	err = fs.itruncateLocked(ino, 50*BlockSize)
	fs.endCallLocked(&err)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := fs.Statfs()
	if before.FreeBlocks != after.FreeBlocks {
		t.Fatalf("grow-truncate allocated blocks: %d -> %d", before.FreeBlocks, after.FreeBlocks)
	}
	st, _ := fs.Stat(ino)
	if st.Size != 50*BlockSize {
		t.Fatalf("size %d", st.Size)
	}
	p := make([]byte, 10)
	if _, err := fs.ReadAt(ino, p, 13*BlockSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 10)) {
		t.Fatal("sparse region not zero")
	}
	checkClean(t, fs)
}

func TestWriteFileReplacesContents(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, _ := fs.Create(fs.Root(), "f")
	if err := fs.WriteFile(ino, bytes.Repeat([]byte("x"), 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "short" {
		t.Fatalf("read %q", got)
	}
	checkClean(t, fs)
}

func TestLinkAndRemove(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, _ := fs.Create(fs.Root(), "a")
	if err := fs.Link(fs.Root(), "b", ino); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(ino)
	if st.Nlink != 2 {
		t.Fatalf("nlink %d, want 2", st.Nlink)
	}
	if err := fs.WriteFile(ino, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	b, _ := fs.Lookup(fs.Root(), "b")
	if b != ino {
		t.Fatalf("b is %d, want %d", b, ino)
	}
	if err := fs.Remove(fs.Root(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("a still visible: %v", err)
	}
	got, err := fs.ReadFile(ino)
	if err != nil || string(got) != "shared" {
		t.Fatalf("after unlink a: %q, %v", got, err)
	}
	if err := fs.Remove(fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ino); !errors.Is(err, ErrBadInode) {
		t.Fatalf("inode should be freed: %v", err)
	}
	checkClean(t, fs)
}

func TestLinkToDirRejected(t *testing.T) {
	fs := newTestFS(t, 512)
	d, _ := fs.Mkdir(fs.Root(), "d")
	if err := fs.Link(fs.Root(), "dd", d); !errors.Is(err, ErrLinkedDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestMkdirRmdir(t *testing.T) {
	fs := newTestFS(t, 512)
	d, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	rst, _ := fs.Stat(fs.Root())
	if rst.Nlink != 3 {
		t.Fatalf("root nlink %d, want 3", rst.Nlink)
	}
	if _, err := fs.Create(d, "f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(fs.Root(), "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := fs.Remove(d, "f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(fs.Root(), "d"); err != nil {
		t.Fatal(err)
	}
	rst, _ = fs.Stat(fs.Root())
	if rst.Nlink != 2 {
		t.Fatalf("root nlink %d after rmdir, want 2", rst.Nlink)
	}
	checkClean(t, fs)
}

func TestRmdirOfFileAndRemoveOfDir(t *testing.T) {
	fs := newTestFS(t, 512)
	f, _ := fs.Create(fs.Root(), "f")
	_ = f
	d, _ := fs.Mkdir(fs.Root(), "d")
	_ = d
	if err := fs.Rmdir(fs.Root(), "f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("rmdir of file: %v", err)
	}
	if err := fs.Remove(fs.Root(), "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("remove of dir: %v", err)
	}
}

func TestRenameSimple(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, _ := fs.Create(fs.Root(), "a")
	if err := fs.WriteFile(ino, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "a"); !errors.Is(err, ErrNotExist) {
		t.Fatal("a still exists")
	}
	b, err := fs.Lookup(fs.Root(), "b")
	if err != nil || b != ino {
		t.Fatalf("b lookup: %d, %v", b, err)
	}
	checkClean(t, fs)
}

func TestRenameReplacesFile(t *testing.T) {
	fs := newTestFS(t, 512)
	a, _ := fs.Create(fs.Root(), "a")
	victim, _ := fs.Create(fs.Root(), "b")
	if err := fs.WriteFile(victim, []byte("victim")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	b, _ := fs.Lookup(fs.Root(), "b")
	if b != a {
		t.Fatalf("b is %d, want %d", b, a)
	}
	if _, err := fs.Stat(victim); !errors.Is(err, ErrBadInode) {
		t.Fatalf("victim not freed: %v", err)
	}
	checkClean(t, fs)
}

func TestRenameDirAcrossParents(t *testing.T) {
	fs := newTestFS(t, 512)
	d1, _ := fs.Mkdir(fs.Root(), "d1")
	d2, _ := fs.Mkdir(fs.Root(), "d2")
	sub, _ := fs.Mkdir(d1, "sub")
	if err := fs.Rename(d1, "sub", d2, "moved"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup(d2, "moved")
	if err != nil || got != sub {
		t.Fatalf("moved lookup: %d, %v", got, err)
	}
	up, err := fs.Lookup(sub, "..")
	if err != nil || up != d2 {
		t.Fatalf("..: %d, %v (want %d)", up, err, d2)
	}
	checkClean(t, fs)
}

func TestRenameIntoOwnSubtreeRejected(t *testing.T) {
	fs := newTestFS(t, 512)
	a, _ := fs.Mkdir(fs.Root(), "a")
	b, _ := fs.Mkdir(a, "b")
	if err := fs.Rename(fs.Root(), "a", b, "x"); !errors.Is(err, ErrDirLoop) {
		t.Fatalf("err = %v, want ErrDirLoop", err)
	}
	if err := fs.Rename(fs.Root(), "a", a, "x"); !errors.Is(err, ErrDirLoop) {
		t.Fatalf("rename into self: %v", err)
	}
	checkClean(t, fs)
}

func TestRenameNoopAndHardLinkAlias(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, _ := fs.Create(fs.Root(), "a")
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(fs.Root(), "alias", ino); err != nil {
		t.Fatal(err)
	}
	// rename(a, alias) where both name the same inode: POSIX removes "a".
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "alias"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "a"); !errors.Is(err, ErrNotExist) {
		t.Fatal("a survived rename onto alias")
	}
	st, _ := fs.Stat(ino)
	if st.Nlink != 1 {
		t.Fatalf("nlink %d, want 1", st.Nlink)
	}
	checkClean(t, fs)
}

func TestRenameDirOntoExistingRejected(t *testing.T) {
	fs := newTestFS(t, 512)
	fs.Mkdir(fs.Root(), "d1")
	fs.Mkdir(fs.Root(), "d2")
	fs.Create(fs.Root(), "f")
	if err := fs.Rename(fs.Root(), "d1", fs.Root(), "d2"); !errors.Is(err, ErrExist) {
		t.Fatalf("dir onto dir: %v", err)
	}
	if err := fs.Rename(fs.Root(), "d1", fs.Root(), "f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("dir onto file: %v", err)
	}
	if err := fs.Rename(fs.Root(), "f", fs.Root(), "d2"); !errors.Is(err, ErrExist) {
		t.Fatalf("file onto dir: %v", err)
	}
}

func TestSymlink(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, err := fs.Symlink(fs.Root(), "ln", "/target/path")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Readlink(ino)
	if err != nil || got != "/target/path" {
		t.Fatalf("readlink: %q, %v", got, err)
	}
	f, _ := fs.Create(fs.Root(), "f")
	if _, err := fs.Readlink(f); !errors.Is(err, ErrNotSymlink) {
		t.Fatalf("readlink of file: %v", err)
	}
	if err := fs.Remove(fs.Root(), "ln"); err != nil {
		t.Fatal(err)
	}
	checkClean(t, fs)
}

func TestNameValidation(t *testing.T) {
	fs := newTestFS(t, 512)
	for _, name := range []string{"", ".", "..", "a/b", "nul\x00byte", strings.Repeat("n", MaxNameLen+1)} {
		if _, err := fs.Create(fs.Root(), name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
	// Exactly MaxNameLen is fine.
	long := strings.Repeat("n", MaxNameLen)
	if _, err := fs.Create(fs.Root(), long); err != nil {
		t.Fatalf("Create(max-len): %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), long); err != nil {
		t.Fatalf("Lookup(max-len): %v", err)
	}
	if _, err := fs.Lookup(fs.Root(), long+"x"); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("Lookup(too long): %v", err)
	}
}

func TestCreateExisting(t *testing.T) {
	fs := newTestFS(t, 512)
	fs.Create(fs.Root(), "f")
	if _, err := fs.Create(fs.Root(), "f"); !errors.Is(err, ErrExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Mkdir(fs.Root(), "f"); !errors.Is(err, ErrExist) {
		t.Fatalf("mkdir over file: %v", err)
	}
}

func TestLookupDotAndDotDot(t *testing.T) {
	fs := newTestFS(t, 512)
	d, _ := fs.Mkdir(fs.Root(), "d")
	if got, err := fs.Lookup(d, "."); err != nil || got != d {
		t.Fatalf(". = %d, %v", got, err)
	}
	if got, err := fs.Lookup(d, ".."); err != nil || got != fs.Root() {
		t.Fatalf(".. = %d, %v", got, err)
	}
	if got, err := fs.Lookup(fs.Root(), ".."); err != nil || got != fs.Root() {
		t.Fatalf("root .. = %d, %v", got, err)
	}
}

func TestManyEntriesInDirectory(t *testing.T) {
	fs := newTestFS(t, 2048)
	var names []string
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("file-%03d", i)
		if _, err := fs.Create(fs.Root(), name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	ents, err := fs.Readdir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 200 {
		t.Fatalf("readdir: %d entries", len(ents))
	}
	// Remove every other one, then reuse the slots.
	for i := 0; i < 200; i += 2 {
		if err := fs.Remove(fs.Root(), names[i]); err != nil {
			t.Fatal(err)
		}
	}
	st0, _ := fs.Stat(fs.Root())
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("new-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st1, _ := fs.Stat(fs.Root())
	if st1.Size != st0.Size {
		t.Fatalf("slot reuse failed: dir grew %d -> %d", st0.Size, st1.Size)
	}
	checkClean(t, fs)
}

func TestOutOfSpace(t *testing.T) {
	fs := newTestFS(t, 40) // tiny device
	ino, err := fs.Create(fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64*BlockSize)
	_, err = fs.WriteAt(ino, big, 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// The filesystem must still be consistent after hitting ENOSPC.
	checkClean(t, fs)
}

func TestOutOfInodes(t *testing.T) {
	dev := disk.New(4096)
	fs, err := Mkfs(dev, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 32; i++ {
		_, lastErr = fs.Create(fs.Root(), fmt.Sprintf("f%d", i))
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoInodes) {
		t.Fatalf("err = %v, want ErrNoInodes", lastErr)
	}
	checkClean(t, fs)
}

func TestReadAtEOFSemantics(t *testing.T) {
	fs := newTestFS(t, 256)
	ino, _ := fs.Create(fs.Root(), "f")
	fs.WriteFile(ino, []byte("abc"))
	p := make([]byte, 10)
	n, err := fs.ReadAt(ino, p, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("n=%d err=%v, want 3, EOF", n, err)
	}
	n, err = fs.ReadAt(ino, p, 3)
	if n != 0 || err != io.EOF {
		t.Fatalf("at EOF: n=%d err=%v", n, err)
	}
	if _, err := fs.ReadAt(ino, p, -1); !errors.Is(err, ErrInvalidWhere) {
		t.Fatalf("negative offset: %v", err)
	}
	if _, err := fs.WriteAt(ino, p, -1); !errors.Is(err, ErrInvalidWhere) {
		t.Fatalf("negative offset write: %v", err)
	}
}

func TestStatfsAccounting(t *testing.T) {
	fs := newTestFS(t, 256)
	before, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	fs.WriteFile(ino, make([]byte, 5*BlockSize))
	after, _ := fs.Statfs()
	if before.FreeBlocks-after.FreeBlocks != 5 {
		t.Fatalf("free blocks %d -> %d, want delta 5", before.FreeBlocks, after.FreeBlocks)
	}
	if before.FreeInodes-after.FreeInodes != 1 {
		t.Fatalf("free inodes delta %d, want 1", before.FreeInodes-after.FreeInodes)
	}
	fs.Remove(fs.Root(), "f")
	final, _ := fs.Statfs()
	if final.FreeBlocks != before.FreeBlocks || final.FreeInodes != before.FreeInodes {
		t.Fatalf("space not reclaimed: %+v vs %+v", final, before)
	}
}

func TestSetMode(t *testing.T) {
	fs := newTestFS(t, 256)
	ino, _ := fs.Create(fs.Root(), "f")
	if err := fs.SetMode(ino, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(ino)
	if st.Mode != 0o644 {
		t.Fatalf("mode %o", st.Mode)
	}
}

// TestModelBasedRandomOps drives the file system with random operations and
// cross-checks every observation against a trivial in-memory model, then
// runs fsck.  This is the package's main correctness property test.
func TestModelBasedRandomOps(t *testing.T) {
	fs := newTestFS(t, 4096)
	rng := rand.New(rand.NewSource(12345))

	type mfile struct {
		data []byte
	}
	model := map[string]*mfile{} // name -> contents, flat namespace in root
	names := func() []string {
		out := make([]string, 0, len(model))
		for n := range model {
			out = append(out, n)
		}
		return out
	}
	inoOf := func(name string) Ino {
		ino, err := fs.Lookup(fs.Root(), name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		return ino
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // create
			name := fmt.Sprintf("f%d", rng.Intn(40))
			_, err := fs.Create(fs.Root(), name)
			if _, exists := model[name]; exists {
				if !errors.Is(err, ErrExist) {
					t.Fatalf("step %d: create existing %q: %v", step, name, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: create %q: %v", step, name, err)
				}
				model[name] = &mfile{}
			}
		case op < 5: // write at random offset
			ns := names()
			if len(ns) == 0 {
				continue
			}
			name := ns[rng.Intn(len(ns))]
			off := rng.Intn(3 * BlockSize)
			data := make([]byte, rng.Intn(2*BlockSize)+1)
			rng.Read(data)
			if _, err := fs.WriteAt(inoOf(name), data, int64(off)); err != nil {
				t.Fatalf("step %d: write %q: %v", step, name, err)
			}
			m := model[name]
			if need := off + len(data); need > len(m.data) {
				m.data = append(m.data, make([]byte, need-len(m.data))...)
			}
			copy(m.data[off:], data)
		case op < 7: // read and compare
			ns := names()
			if len(ns) == 0 {
				continue
			}
			name := ns[rng.Intn(len(ns))]
			got, err := fs.ReadFile(inoOf(name))
			if err != nil {
				t.Fatalf("step %d: read %q: %v", step, name, err)
			}
			if !bytes.Equal(got, model[name].data) {
				t.Fatalf("step %d: %q contents diverged (%d vs %d bytes)", step, name, len(got), len(model[name].data))
			}
		case op < 8: // truncate
			ns := names()
			if len(ns) == 0 {
				continue
			}
			name := ns[rng.Intn(len(ns))]
			size := rng.Intn(4 * BlockSize)
			if err := fs.Truncate(inoOf(name), uint64(size)); err != nil {
				t.Fatalf("step %d: truncate %q: %v", step, name, err)
			}
			m := model[name]
			if size <= len(m.data) {
				m.data = m.data[:size]
			} else {
				m.data = append(m.data, make([]byte, size-len(m.data))...)
			}
		case op < 9: // remove
			ns := names()
			if len(ns) == 0 {
				continue
			}
			name := ns[rng.Intn(len(ns))]
			if err := fs.Remove(fs.Root(), name); err != nil {
				t.Fatalf("step %d: remove %q: %v", step, name, err)
			}
			delete(model, name)
		default: // rename
			ns := names()
			if len(ns) == 0 {
				continue
			}
			src := ns[rng.Intn(len(ns))]
			dst := fmt.Sprintf("f%d", rng.Intn(40))
			err := fs.Rename(fs.Root(), src, fs.Root(), dst)
			if err != nil {
				t.Fatalf("step %d: rename %q %q: %v", step, src, dst, err)
			}
			if src != dst {
				model[dst] = model[src]
				delete(model, src)
			}
		}
	}
	// Final sweep: every model file matches; directory listing matches.
	ents, err := fs.Readdir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(model) {
		t.Fatalf("%d entries on disk, %d in model", len(ents), len(model))
	}
	for name, m := range model {
		got, err := fs.ReadFile(inoOf(name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, m.data) {
			t.Fatalf("final: %q diverged", name)
		}
	}
	checkClean(t, fs)
}

func TestCheckDetectsCorruption(t *testing.T) {
	fs := newTestFS(t, 512)
	ino, _ := fs.Create(fs.Root(), "f")
	fs.WriteFile(ino, []byte("x"))
	// Corrupt: bump the link count behind the FS's back.
	fs.mu.Lock()
	din, _ := fs.readInodeLocked(ino)
	din.Nlink = 7
	err := fs.writeInodeLocked(ino, din)
	fs.endCallLocked(&err)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) == 0 {
		t.Fatal("fsck missed a bad link count")
	}
}
