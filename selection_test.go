package ficus

// Replica selection binds a name to one file (DESIGN.md §3.1): the copies a
// policy ranks are copies of the file the name is bound to now, and the copy an
// open pins is the one the open reached.

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// sideVolume makes a volume with replicas on hosts 1 and 2 of a three-host
// cluster.
func sideVolume(t *testing.T) (*Cluster, Volume) {
	t.Helper()
	c := newTestCluster(t, 3)
	side, err := c.NewVolume(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateVolume(side, 2); err != nil {
		t.Fatal(err)
	}
	return c, side
}

func wantContent(t *testing.T, m *Mount, path, want string) {
	t.Helper()
	got, err := m.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("%s reads %q, %v; want %q", path, got, err, want)
	}
}

// TestMostRecentRanksCopiesOfOneFile: after a rename the name is bound to
// different files on a replica that has seen the rename and on one that has
// not.  The policy ranks only copies of the file the first answering copy
// names — so a write to the new /f never lands in the renamed file's copy
// elsewhere, however many updates that copy has seen.
func TestMostRecentRanksCopiesOfOneFile(t *testing.T) {
	c, side := sideVolume(t)
	m, err := c.mountVol(1, side, MostRecent)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"old", "old, twice", "old, three times"} {
		if err := m.WriteFile("/f", []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	wantContent(t, m, "/g", "old, three times")
	wantContent(t, m, "/f", "new")
	for _, h := range []int{0, 2} {
		o, err := c.mountVol(h, side, FirstAvailable)
		if err != nil {
			t.Fatal(err)
		}
		wantContent(t, o, "/g", "old, three times")
		wantContent(t, o, "/f", "new")
	}
}

// TestOpenPinsTheFileItOpened: a client holds a resolution of /f that another
// host's rename has since bound to /g.  Its next open of /f reaches the new
// file — that is what the physical layer counts the open against — and the
// reads must come from that file too.
func TestOpenPinsTheFileItOpened(t *testing.T) {
	c, side := sideVolume(t)
	m0, err := c.mountVol(0, side, FirstAvailable)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := c.mountVol(1, side, FirstAvailable)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.WriteFile("/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	wantContent(t, m0, "/f", "old")

	if err := m1.Rename("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if err := m1.WriteFile("/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	f, err := m0.Root().Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	opens := 0
	for _, h := range []int{1, 2} {
		rep := c.Host(h).LocalReplica(side.h)
		root, _ := rep.Root()
		nf, err := root.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		a, _ := nf.Getattr()
		fid, err := ids.ParseFileID(a.FileID)
		if err != nil {
			t.Fatal(err)
		}
		opens += rep.OpenCount(fid)
	}
	if opens != 1 {
		t.Fatalf("the new /f is open %d times, want 1", opens)
	}
	buf := make([]byte, 16)
	n, _ := f.ReadAt(buf, 0)
	if err := f.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "new" {
		t.Fatalf("the open of /f reads %q, want %q", got, "new")
	}
	wantContent(t, m0, "/f", "new")
	wantContent(t, m0, "/g", "old")
}
