package ufsvn

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/retry"
	"repro/internal/ufs"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

func newVFS(t *testing.T) *VFS {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(2048), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(fs)
}

func TestConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS { return newVFS(t) })
}

func TestResolveHandle(t *testing.T) {
	fs := newVFS(t)
	root, _ := fs.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Resolve(f.Handle())
	if err != nil {
		t.Fatal(err)
	}
	if got.Handle() != f.Handle() {
		t.Fatalf("resolved %q, want %q", got.Handle(), f.Handle())
	}
	// Stale handle after remove.
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(f.Handle()); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("stale resolve: %v", err)
	}
	if _, err := fs.Resolve("not-a-number"); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("garbage resolve: %v", err)
	}
}

func TestErrorMapping(t *testing.T) {
	fs := newVFS(t)
	root, _ := fs.Root()
	d, _ := root.Mkdir("d")
	if err := root.Link("dl", d); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("link to dir: %v", err)
	}
	f, _ := root.Create("f", true)
	if _, err := f.Readlink(); vnode.AsErrno(err) != vnode.EINVAL {
		t.Fatalf("readlink of file: %v", err)
	}
}

func TestCrossFSOpsRejected(t *testing.T) {
	a := newVFS(t)
	b := newVFS(t)
	ra, _ := a.Root()
	rb, _ := b.Root()
	f, _ := ra.Create("f", true)
	if err := rb.Link("x", f); vnode.AsErrno(err) != vnode.EXDEV {
		t.Fatalf("cross-fs link: %v", err)
	}
	if err := ra.Rename("f", rb, "g"); vnode.AsErrno(err) != vnode.EXDEV {
		t.Fatalf("cross-fs rename: %v", err)
	}
}

// TestTransientDiskFaultStaysTransient injects a one-shot transient read
// error under a vnode operation and checks the classification survives the
// ufs -> ufsvn error mapping: the retry machinery must see a flaky platter
// exactly like a flaky link.
func TestTransientDiskFaultStaysTransient(t *testing.T) {
	dev := disk.New(2048)
	fs, err := ufs.Mkfs(dev, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	vfs := New(fs)
	root, _ := vfs.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Evict cached blocks so the next read really hits the platter.
	fs2, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	vfs2 := New(fs2)
	root2, _ := vfs2.Root()

	f2, err := root2.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	// Data blocks are not touched by mount-time recovery, so this read
	// must hit the platter and trip the scripted fault.
	dev.ScriptFault(disk.FaultReadError)
	_, readErr := vnode.ReadFile(f2)
	if readErr == nil {
		t.Fatal("scripted read fault produced no error")
	}
	if !errors.Is(readErr, vnode.EIO) {
		t.Fatalf("fault not mapped to EIO: %v", readErr)
	}
	if !retry.Transient(readErr) {
		t.Fatalf("injected disk fault lost its transience through ufsvn: %v", readErr)
	}
	// One-shot: the retry succeeds.
	if data, err := vnode.ReadFile(f2); err != nil || string(data) != "data" {
		t.Fatalf("retry after transient fault: %q %v", data, err)
	}
}

// TestLookupReturnsTheInodesVnode pins the per-inode table: every call that
// names an inode returns its one vnode, so a warm lookup allocates nothing.
// Invariants are disarmed: a check may allocate.
func TestLookupReturnsTheInodesVnode(t *testing.T) {
	defer invariant.ForceForTest(false)()
	fs := newVFS(t)
	root, _ := fs.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := root.Lookup("f")
	byHandle, _ := fs.Resolve(f.Handle())
	if again != f || byHandle != f {
		t.Fatal("one inode, several vnodes")
	}
	if r, _ := fs.Root(); r != root {
		t.Fatal("two root vnodes")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := root.Lookup("f"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm Lookup allocates %v times, want 0", n)
	}
}

// TestHandleIsMadeOnce pins Handle: the string is formatted on the first call
// for an inode, and a repeat call returns it without allocating — also above
// inode 99, where formatting a number allocates.  Getattr's FileID is the same
// string.
func TestHandleIsMadeOnce(t *testing.T) {
	defer invariant.ForceForTest(false)()
	fs := newVFS(t)
	root, _ := fs.Root()
	var f vnode.Vnode
	for i := 0; i < 120; i++ {
		var err error
		if f, err = root.Create(fmt.Sprintf("f%d", i), true); err != nil {
			t.Fatal(err)
		}
	}
	h := f.Handle()
	if n, err := strconv.Atoi(h); err != nil || n < 100 {
		t.Fatalf("handle %q: want an inode above 99", h)
	}
	if n := testing.AllocsPerRun(200, func() {
		if f.Handle() != h {
			t.Fatal("the handle changed")
		}
	}); n != 0 {
		t.Errorf("a repeat Handle allocates %v times, want 0", n)
	}
	if a, err := f.Getattr(); err != nil || a.FileID != h {
		t.Fatalf("Getattr FileID %q (%v), want the handle %q", a.FileID, err, h)
	}
}
