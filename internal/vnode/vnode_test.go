package vnode_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

func baseVFS(t *testing.T) vnode.VFS {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(2048), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ufsvn.New(fs)
}

// TestNullStackConformance runs the full conformance suite through a stack
// of 3 null layers: transparent interposition is the paper's core
// architectural claim (Fig. 1, §7).
func TestNullStackConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS {
			var fs vnode.VFS = baseVFS(t)
			for i := 0; i < 3; i++ {
				fs = vnode.NewNull(fs)
			}
			return fs
		})
}

func TestHookLayerCountsAndObserves(t *testing.T) {
	var calls []string
	h := vnode.NewHook(baseVFS(t), func(op string) { calls = append(calls, op) })
	root, err := h.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	if h.Ops() != 4 { // root, create, write, lookup
		t.Fatalf("ops %d, want 4: %v", h.Ops(), calls)
	}
	want := []string{"root", "create", "write", "lookup"}
	for i, w := range want {
		if calls[i] != w {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
}

func TestHookSeesAllOpsThroughStack(t *testing.T) {
	// hook above two nulls: operations must still be counted once each.
	base := baseVFS(t)
	h := vnode.NewHook(vnode.NewNull(vnode.NewNull(base)), nil)
	root, _ := h.Root()
	d, err := root.Mkdir("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("d", root, "e"); err != nil {
		t.Fatal(err)
	}
	_ = d
	if err := root.Rmdir("e"); err != nil {
		t.Fatal(err)
	}
	if h.Ops() != 4 {
		t.Fatalf("ops %d, want 4", h.Ops())
	}
}

func TestNullLayerUnwrapsPeersForRename(t *testing.T) {
	n := vnode.NewNull(baseVFS(t))
	root, _ := n.Root()
	d1, _ := root.Mkdir("d1")
	d2, _ := root.Mkdir("d2")
	if _, err := d1.Create("f", true); err != nil {
		t.Fatal(err)
	}
	// dstDir is a wrapped vnode of the same layer; Rename must unwrap it
	// before handing it to UFS, or UFS would see a foreign type.
	if err := d1.Rename("f", d2, "g"); err != nil {
		t.Fatalf("rename through null layer: %v", err)
	}
	if _, err := d2.Lookup("g"); err != nil {
		t.Fatal(err)
	}
}

// TestPassThroughRefusesLowerPeers: a vnode of the layer below belongs to
// another layer instance, so a null and a hook vnode answer EXDEV when it
// is Link's target or Rename's dstDir, instead of handing it down, and
// nothing changes.
func TestPassThroughRefusesLowerPeers(t *testing.T) {
	for name, layer := range map[string]func(vnode.VFS) vnode.VFS{
		"null": func(lower vnode.VFS) vnode.VFS { return vnode.NewNull(lower) },
		"hook": func(lower vnode.VFS) vnode.VFS { return vnode.NewHook(lower, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			lower := baseVFS(t)
			lowerRoot, _ := lower.Root()
			root, err := layer(lower).Root()
			if err != nil {
				t.Fatal(err)
			}
			f, err := lowerRoot.Create("f", true)
			if err != nil {
				t.Fatal(err)
			}
			d, err := lowerRoot.Mkdir("d")
			if err != nil {
				t.Fatal(err)
			}
			if err := root.Link("g", f); vnode.AsErrno(err) != vnode.EXDEV {
				t.Errorf("Link to a lower vnode: %v, want EXDEV", err)
			}
			if err := root.Rename("f", d, "h"); vnode.AsErrno(err) != vnode.EXDEV {
				t.Errorf("Rename into a lower vnode: %v, want EXDEV", err)
			}
			if _, err := root.Lookup("f"); err != nil {
				t.Errorf("f after the refusals: %v", err)
			}
			for _, gone := range []string{"g", "d/h"} {
				if _, err := vnode.Walk(root, gone); vnode.AsErrno(err) != vnode.ENOENT {
					t.Errorf("%s after the refusals: %v, want ENOENT", gone, err)
				}
			}
		})
	}
}

// TestPassIsOneVnodeBlock: the pass-through vnode is the paper's "storage
// for another vnode block" (§6) and no more — its layer pointer and the
// vnode below, three words.
func TestPassIsOneVnodeBlock(t *testing.T) {
	if got, want := unsafe.Sizeof(vnode.Pass{}), 3*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("vnode.Pass is %d bytes, want %d", got, want)
	}
}

func TestErrnoVocabulary(t *testing.T) {
	if vnode.ENOENT.Error() == "" || vnode.Errno(999).Error() == "" {
		t.Fatal("empty error strings")
	}
	if vnode.AsErrno(nil) != vnode.EOK {
		t.Fatal("nil should map to EOK")
	}
	wrapped := fmt.Errorf("context: %w", vnode.ENOTDIR)
	if vnode.AsErrno(wrapped) != vnode.ENOTDIR {
		t.Fatal("wrapped errno lost")
	}
	if vnode.AsErrno(errors.New("opaque")) != vnode.EIO {
		t.Fatal("opaque error should degrade to EIO")
	}
	if got := vnode.ErrnoFromCode(vnode.ENOSPC.Code()); got != vnode.ENOSPC {
		t.Fatalf("round trip: %v", got)
	}
	if got := vnode.ErrnoFromCode(424242); got != vnode.EIO {
		t.Fatalf("unknown code: %v", got)
	}
	if got := vnode.ErrnoFromCode(0); got != vnode.EOK {
		t.Fatalf("zero code: %v", got)
	}
}

// TestAsErrnoOfBareErrnoAllocatesNothing: the errors a layer passes up are
// mostly bare Errno values, and mapping one costs no allocation (errors.As
// takes its target's address, which escapes).
func TestAsErrnoOfBareErrnoAllocatesNothing(t *testing.T) {
	var err error = vnode.ENOENT
	if n := testing.AllocsPerRun(100, func() {
		if vnode.AsErrno(err) != vnode.ENOENT {
			t.Fatal("bare errno lost")
		}
	}); n != 0 {
		t.Errorf("AsErrno of a bare Errno allocates %v times, want 0", n)
	}
}

// TestNextName: stepping through a path visits its components in order,
// without the empty and "." segments, and LastName is the last of them.
func TestNextName(t *testing.T) {
	cases := map[string][]string{
		"":            nil,
		"/":           nil,
		"a":           {"a"},
		"/a/b/c":      {"a", "b", "c"},
		"a//b/":       {"a", "b"},
		"./a/./b":     {"a", "b"},
		"a/b/c/d/e/f": {"a", "b", "c", "d", "e", "f"},
	}
	for in, want := range cases {
		var got []string
		for name, i := vnode.NextName(in, 0); name != ""; name, i = vnode.NextName(in, i) {
			got = append(got, name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NextName steps %q as %q, want %q", in, got, want)
		}
		last := ""
		if len(want) > 0 {
			last = want[len(want)-1]
		}
		if got := vnode.LastName(in); got != last {
			t.Errorf("LastName(%q) = %q, want %q", in, got, last)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for name, i := vnode.NextName("/a/b/c", 0); name != ""; name, i = vnode.NextName("/a/b/c", i) {
		}
	}); n != 0 {
		t.Fatalf("stepping through a path allocates %v times", n)
	}
}

func TestWalkAndMkdirAll(t *testing.T) {
	fs := baseVFS(t)
	root, _ := fs.Root()
	if _, err := vnode.MkdirAll(root, "a/b/c"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if _, err := vnode.MkdirAll(root, "a/b/c"); err != nil {
		t.Fatal(err)
	}
	v, err := vnode.Walk(root, "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := v.Getattr()
	if a.Type != vnode.VDir {
		t.Fatalf("type %v", a.Type)
	}
	if _, err := vnode.Walk(root, "a/missing/c"); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("walk missing: %v", err)
	}
	parent, name, err := vnode.WalkParent(root, "a/b/newfile")
	if err != nil || name != "newfile" {
		t.Fatalf("WalkParent: %q, %v", name, err)
	}
	if _, err := parent.Create(name, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := vnode.WalkParent(root, "/"); vnode.AsErrno(err) != vnode.EINVAL {
		t.Fatalf("WalkParent of root: %v", err)
	}
}

func TestReadWriteFileHelpers(t *testing.T) {
	fs := baseVFS(t)
	root, _ := fs.Root()
	f, _ := root.Create("f", true)
	if err := vnode.WriteFile(f, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(f)
	if err != nil || string(got) != "hello" {
		t.Fatalf("%q, %v", got, err)
	}
	if err := vnode.WriteFile(f, nil); err != nil {
		t.Fatal(err)
	}
	got, err = vnode.ReadFile(f)
	if err != nil || len(got) != 0 {
		t.Fatalf("after empty write: %q, %v", got, err)
	}
}

func TestVTypeString(t *testing.T) {
	for ty, want := range map[vnode.VType]string{
		vnode.VReg: "file", vnode.VDir: "dir", vnode.VLnk: "symlink",
	} {
		if ty.String() != want {
			t.Errorf("%d -> %q", int(ty), ty.String())
		}
	}
	if vnode.VType(42).String() == "" {
		t.Error("unknown VType should render")
	}
}
