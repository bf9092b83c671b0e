package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/recon"
	"repro/internal/vnode"
)

// pendingSet renders a host's NVC for one volume as a comparable set.
func pendingSet(h *Host, vol ids.VolumeHandle) map[string]bool {
	out := map[string]bool{}
	l := h.LocalReplica(vol)
	if l == nil {
		return out
	}
	for _, nv := range l.PendingVersions() {
		out[fmt.Sprintf("%s@%d", nv.File, nv.Origin)] = true
	}
	return out
}

func TestCrashStopsServices(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.hosts[0], c.hosts[1]
	root := c.mount(t, 0)
	if _, err := root.Create("pre", true); err != nil {
		t.Fatal(err)
	}

	h1.Crash()
	if !h1.Down() {
		t.Fatal("Down() false after Crash")
	}
	h1.Crash() // idempotent

	// The crashed host refuses local work.
	if _, err := h1.Mount(c.vol, logical.MostRecent); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Mount on crashed host: %v, want ErrHostDown", err)
	}
	if _, _, err := h1.CreateVolume(nil); !errors.Is(err, ErrHostDown) {
		t.Fatalf("CreateVolume on crashed host: %v, want ErrHostDown", err)
	}
	if s, err := h1.PropagateOnce(); err != nil || s != (recon.Stats{}) {
		t.Fatalf("PropagateOnce on crashed host: %+v %v", s, err)
	}
	if n, err := h1.CollectGarbage(); n != 0 || err != nil {
		t.Fatalf("CollectGarbage on crashed host: %d %v", n, err)
	}

	// Remote reads that would fail over to the crashed replica keep
	// working from the survivor, and the survivor's daemons tolerate the
	// dead peer.
	if _, err := root.Lookup("pre"); err != nil {
		t.Fatalf("survivor lost access: %v", err)
	}
	if _, err := h0.PropagateOnce(); err != nil {
		t.Fatalf("survivor propagate: %v", err)
	}
	if _, err := h0.ReconcileOnce(); err != nil {
		t.Fatalf("survivor reconcile: %v", err)
	}
}

func TestRestartRemountsAndRescans(t *testing.T) {
	c := newCluster(t, 2)
	h1 := c.hosts[1]
	root := c.mount(t, 0)

	// A write before the crash, and one while host 1 is down: the second
	// one's notification is lost forever and only the rescan can find it.
	f, err := root.Create("before", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("b")); err != nil {
		t.Fatal(err)
	}
	c.settle(t)

	h1.Crash()
	g, err := root.Create("while-down", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(g, []byte("w")); err != nil {
		t.Fatal(err)
	}

	if err := h1.Restart(); err != nil {
		t.Fatal(err)
	}
	if h1.Down() {
		t.Fatal("Down() true after Restart")
	}
	if err := h1.Restart(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := h1.RescanPending(); got != 1 {
		t.Fatalf("RescanPending = %d, want 1", got)
	}

	// The first daemon pass performs the owed rescan and finds the update
	// whose notification died with the crash.
	if _, err := h1.PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if got := h1.RescanPending(); got != 0 {
		t.Fatalf("RescanPending = %d after daemon pass, want 0", got)
	}
	c.settle(t)
	root1 := c.mount(t, 1)
	for _, name := range []string{"before", "while-down"} {
		v, err := root1.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %s after restart: %v", name, err)
		}
		if _, err := vnode.ReadFile(v); err != nil {
			t.Fatalf("read %s after restart: %v", name, err)
		}
	}

	// The restarted replicas are structurally clean.
	if probs, err := h1.Fsck(); err != nil || len(probs) != 0 {
		t.Fatalf("fsck after restart: %v %v", probs, err)
	}
}

// TestRestartDrainsDurableNVC is the ISSUE's acceptance scenario: a host
// that crashed with a populated new-version cache must, after restart,
// drain the journal-recovered entries by pulling — without re-receiving a
// single notification (NotificationsSeen stays flat during the drain).
func TestRestartDrainsDurableNVC(t *testing.T) {
	c := newCluster(t, 2)
	h1 := c.hosts[1]
	root := c.mount(t, 0)

	// Updates on host 0 announce into host 1's NVC (journaled as they
	// arrive) but are deliberately never propagated before the crash.
	for i := 0; i < 5; i++ {
		f, err := root.Create(fmt.Sprintf("f%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := pendingSet(h1, c.vol)
	if len(before) == 0 {
		t.Fatal("no pending versions accumulated on host 1")
	}

	h1.Crash()
	if err := h1.Restart(); err != nil {
		t.Fatal(err)
	}

	// The journal restored the cache across the reboot.
	after := pendingSet(h1, c.vol)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("durable NVC mismatch:\npre-crash %v\nrecovered %v", before, after)
	}

	// Drain by pulling only: no notifications may arrive (host 0 is not
	// writing), so NotificationsSeen must stay flat.
	seen := h1.GossipStats().NotificationsSeen
	for i := 0; i < 10 && len(pendingSet(h1, c.vol)) > 0; i++ {
		if _, err := h1.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if remaining := pendingSet(h1, c.vol); len(remaining) != 0 {
		t.Fatalf("NVC not drained: %v", remaining)
	}
	if got := h1.GossipStats().NotificationsSeen; got != seen {
		t.Fatalf("NotificationsSeen moved during drain: %d -> %d", seen, got)
	}

	// The drained versions are really here: read every file locally.
	root1 := c.mount(t, 1)
	for i := 0; i < 5; i++ {
		v, err := root1.Lookup(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		data, err := vnode.ReadFile(v)
		if err != nil || string(data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("f%d: %q %v", i, data, err)
		}
	}
}

func TestRestartFailureKeepsHostDown(t *testing.T) {
	c := newCluster(t, 2)
	h1 := c.hosts[1]
	h1.Crash()

	// Scorch the device so the remount fails.
	devs := h1.Devices()
	if len(devs) != 1 {
		t.Fatalf("want 1 device, have %d", len(devs))
	}
	for bn := 0; bn < 8; bn++ {
		var junk [4096]byte
		devs[0].ClearFault()
		if err := devs[0].Write(bn, junk[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h1.Restart(); err == nil {
		t.Fatal("Restart succeeded on a scorched device")
	}
	if !h1.Down() {
		t.Fatal("host came up after a failed restart")
	}
	if _, err := h1.Mount(c.vol, logical.MostRecent); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Mount after failed restart: %v, want ErrHostDown", err)
	}
}
