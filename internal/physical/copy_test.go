package physical

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// TestWarmCopyReadersReadNothing: every runtime reader of an aux member takes
// it from the aux cache (fileAuxLocked), and its one in-place writer
// (rewriteAuxLocked) records what it wrote there, so once the caches are warm
// a file's Getattr, FileInfo, the local side of a pull, a pull answered stale,
// a whole-block write, a Create, a Link, and a directory's Getattr and
// DirEntries read no byte of the store — each asks only for the members and
// their stamps.  A row with warm runs it first; one without runs op twice.
func TestWarmCopyReadersReadNothing(t *testing.T) {
	fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	l, err := Format(vnode.NewHook(ufsvn.New(fs), func(op string) {
		if op == "read" {
			reads++
		}
	}), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := l.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, make([]byte, 3*ChecksumBlockSize)); err != nil {
		t.Fatal(err)
	}
	fid := mustFid(t, f)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	newName := func() string { names++; return fmt.Sprintf("n%d", names) }
	writeBlock := func() error {
		_, err := f.WriteAt(make([]byte, ChecksumBlockSize), ChecksumBlockSize)
		return err
	}
	create := func() error { _, err := root.Create(newName(), true); return err }
	for _, c := range []struct {
		what     string
		warm, op func() error
	}{
		{what: "file Getattr", op: func() error { _, err := f.Getattr(); return err }},
		{what: "FileInfo", op: func() error { _, err := l.FileInfo(RootPath(), fid); return err }},
		{what: "PullRequestFor", op: func() error { _, _, err := l.PullRequestFor(RootPath(), fid, nil); return err }},
		{what: "PullRequestFor with a base", op: func() error { _, _, err := l.PullRequestFor(RootPath(), fid, DeltaBase{}); return err }},
		{what: "a pull answered stale", op: func() error {
			res, _ := l.PullBatchDelta([]PullRequest{{Dir: RootPath(), File: fid, LocalVV: st.Aux.VV, HasLocal: true}}, nil)
			if res[0].Status != PullStale {
				t.Fatalf("pull answered %v, want stale", res[0].Status)
			}
			return nil
		}},
		{what: "whole-block WriteAt after a WriteAt", op: writeBlock},
		{what: "whole-block WriteAt after a Getattr", warm: func() error {
			l.FlushCaches()
			_, err := f.Getattr()
			return err
		}, op: writeBlock},
		{what: "Create in a warm directory", op: create},
		{what: "Link", op: func() error { return root.Link(newName(), f) }},
		{what: "directory Getattr after a Create", warm: create, op: func() error { _, err := root.Getattr(); return err }},
		{what: "DirEntries after a Create", warm: create, op: func() error { _, err := l.DirEntries(RootPath()); return err }},
	} {
		warm := c.warm
		if warm == nil {
			warm = c.op
		}
		if err := warm(); err != nil {
			t.Fatalf("%s: warming: %v", c.what, err)
		}
		reads = 0
		if err := c.op(); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if reads != 0 {
			t.Errorf("warm %s made %d store reads, want 0", c.what, reads)
		}
	}
}

// TestHalfStoredCopyIsNotStored: a copy whose aux is there but whose data
// member is not — what a crash between the two can leave — is not stored, and
// every reader of a stored copy says so in its own terms.
func TestHalfStoredCopyIsNotStored(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("data")); err != nil {
		t.Fatal(err)
	}
	fid := mustFid(t, f)
	cont, err := l.containerOf(RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := cont.Remove(memberName(prefixData, fid)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		ask  func() (notStored bool, answer any)
	}{
		{"FileInfo", func() (bool, any) {
			_, err := l.FileInfo(RootPath(), fid)
			return errors.Is(err, ErrNotStored), err
		}},
		{"PullRequestFor", func() (bool, any) { // an unconditional request
			req, local, err := l.PullRequestFor(RootPath(), fid, DeltaBase{})
			return err == nil && local.Len() == 0 && !req.HasLocal, fmt.Sprint(req.HasLocal, local, err)
		}},
		{"the pull answer", func() (bool, any) {
			res, _ := l.PullBatchDelta([]PullRequest{{Dir: RootPath(), File: fid}}, nil)
			return res[0].Status == PullNotStored, res[0].Status
		}},
		{"Getattr", func() (bool, any) {
			_, err := f.Getattr()
			return vnode.AsErrno(err) == vnode.ENOSTOR, err
		}},
		{"StoresFile", func() (bool, any) {
			stored := l.StoresFile(RootPath(), fid)
			return !stored, stored
		}},
	} {
		if notStored, answer := c.ask(); !notStored {
			t.Errorf("%s of a copy without its data member answered %v, want not stored", c.what, answer)
		}
	}
}
