package ufs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
)

// TestRecoverRepairsLeaks plants each leak class a crash can leave behind
// and verifies that a remount (which runs Recover) returns the volume to a
// state Check calls clean.
func TestRecoverRepairsLeaks(t *testing.T) {
	dev := disk.New(512)
	fs, err := Mkfs(dev, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(fs.Root(), "keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, []byte("survives recovery")); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	// Ghost inode: bitmap bit set, inode never initialized (crash inside
	// ialloc between the bitmap write and the inode write).
	if err := fs.inoMap.set(20, true); err != nil {
		t.Fatal(err)
	}
	// Leaked block: allocated in the bitmap, referenced by no inode (crash
	// inside balloc before the pointer attach).
	leaked, err := fs.ballocLocked()
	if err != nil {
		t.Fatal(err)
	}
	// Unreachable inode: allocated and initialized but named by no
	// directory (crash between dir-entry removal and the inode free).
	orphan, err := fs.iallocLocked(TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	// Stale link count on a live file (crash between a dir write and the
	// nlink update).
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		t.Fatal(err)
	}
	din.Nlink = 7
	if err := fs.writeInodeLocked(ino, din); err != nil {
		t.Fatal(err)
	}
	fs.endCallLocked(&err)
	if err != nil {
		t.Fatal(err)
	}

	if problems, err := fs.Check(); err != nil || len(problems) == 0 {
		t.Fatalf("planted corruption not visible to Check: %v, %v", problems, err)
	}

	fs2, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if problems, err := fs2.Check(); err != nil {
		t.Fatal(err)
	} else if len(problems) != 0 {
		t.Fatalf("recovery left problems: %v", problems)
	}

	// The live file survived, the leaks are reclaimed.
	data, err := fs2.ReadFile(ino)
	if err != nil || string(data) != "survives recovery" {
		t.Fatalf("live file damaged: %q, %v", data, err)
	}
	fs2.mu.Lock()
	defer fs2.mu.Unlock()
	for _, c := range []struct {
		name string
		m    bitmap
		idx  uint32
	}{{"inode", fs2.inoMap, 20}, {"inode", fs2.inoMap, uint32(orphan)}, {"block", fs2.blkMap, leaked}} {
		used, err := c.m.test(c.idx)
		if err != nil {
			t.Fatal(err)
		}
		if used {
			t.Errorf("leak at %s bitmap idx %d not reclaimed", c.name, c.idx)
		}
	}
	if st, err := fs2.readInodeLocked(ino); err != nil || st.Nlink != 1 {
		t.Fatalf("nlink not repaired: %+v, %v", st, err)
	}
}

// TestCheckAndRecoverAgreeOnDamagedTree damages the directory tree by hand —
// an entry naming a free inode, a "." naming another directory, a stale link
// count — and holds Check and Recover to one reading of it, the shared
// walkTreeLocked: Check reports all three; Recover drops the dangling entry
// and resets the count to the references Check counts, so a second Check is
// left with exactly the one thing no crash can cause and Recover does not
// touch, the wrong ".".
func TestCheckAndRecoverAgreeOnDamagedTree(t *testing.T) {
	fs, err := Mkfs(disk.New(512), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	sub, err := fs.Mkdir(root, "sub")
	if err != nil {
		t.Fatal(err)
	}
	other, err := fs.Mkdir(root, "other")
	if err != nil {
		t.Fatal(err)
	}
	file, err := fs.Create(sub, "file")
	if err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	if err := fs.dirAddLocked(sub, "dangling", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.dirRemoveLocked(sub, "."); err != nil {
		t.Fatal(err)
	}
	if err := fs.dirAddLocked(sub, ".", other); err != nil {
		t.Fatal(err)
	}
	din, err := fs.readInodeLocked(file)
	if err != nil {
		t.Fatal(err)
	}
	din.Nlink = 5
	if err := fs.writeInodeLocked(file, din); err != nil {
		t.Fatal(err)
	}
	fs.endCallLocked(&err)
	if err != nil {
		t.Fatal(err)
	}

	wrongDot := fmt.Sprintf("dir %d: \".\" points at %d", sub, other)
	problems, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("dir %d: entry \"dangling\" points at free inode 40", sub),
		wrongDot,
		"nlink=5 but 1 references",
	} {
		found := false
		for _, p := range problems {
			found = found || strings.Contains(p, want)
		}
		if !found {
			t.Errorf("Check did not report %q; it reported %q", want, problems)
		}
	}
	if len(problems) != 3 {
		t.Errorf("Check reported %d problems, want the 3 planted: %q", len(problems), problems)
	}

	if err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	problems, err = fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0] != wrongDot {
		t.Fatalf("after Recover, Check reports %q, want only %q", problems, wrongDot)
	}
	if _, err := fs.Lookup(sub, "dangling"); err != ErrNotExist {
		t.Fatalf("dangling entry survived Recover: %v", err)
	}
	if st, err := fs.Stat(file); err != nil || st.Nlink != 1 {
		t.Fatalf("nlink after Recover: %+v, %v", st, err)
	}
}
