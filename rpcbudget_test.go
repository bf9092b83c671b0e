package ficus

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/invariant"
)

// remoteReadCluster is bench/'s remote_read in miniature, built without
// bench/: three hosts, a side volume with replicas on hosts 1 and 2 only, and
// a mount of it on host 0 — no local replica, so every name and byte crosses
// NFS (paper Figure 2) through clients with their default caches.  16 files
// of 8 KiB in two directories, settled on both replicas and read once each.
func remoteReadCluster(t *testing.T, p Policy) (*Cluster, Volume, *Mount, func(i int) (string, []byte)) {
	t.Helper()
	c := newTestCluster(t, 3)
	side, err := c.NewVolume(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateVolume(side, 2); err != nil {
		t.Fatal(err)
	}
	m, err := c.mountVol(0, side, p)
	if err != nil {
		t.Fatal(err)
	}
	file := func(i int) (string, []byte) {
		return fmt.Sprintf("/d%d/f%d", i%2, i%16), bytes.Repeat([]byte{byte('a' + i%16)}, 8192)
	}
	for d := 0; d < 2; d++ {
		if err := m.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		path, data := file(i)
		if err := m.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	readAll(t, m, file, 16)
	return c, side, m, file
}

// readAll issues n ReadFiles over the 16 files in a fixed scattered order.
func readAll(t *testing.T, m *Mount, file func(int) (string, []byte), n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		path, want := file(i * 7)
		got, err := m.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d of %s: %d bytes, %v", i, path, len(got), err)
		}
	}
}

// TestRemoteReadRPCBudget is the RPC economy of a remote read as a gate that
// does not need bench/: under the default policy a ReadFile polls the two
// replicas once, at its open, and everything after goes to the copy chosen.
// 200 reads cost 927 RPCs — 4.64 each: the open, the read and the close, the
// polls the NFS attribute cache does not answer (16 files in rotation outlive
// it), and, for a file whose resolution aged out, one lookup from its parent's
// cached resolution.  A walk does not ask again whether a copy it knows is no
// graft point is one, nor look a cached directory up again from the root:
// with both, the same reads cost 1 132 (5.66).  Selecting before every
// operation, as before selection moved to the open, they cost 1 519 (7.60).
func TestRemoteReadRPCBudget(t *testing.T) {
	c, _, m, file := remoteReadCluster(t, MostRecent)
	c.ResetNetworkStats()
	readAll(t, m, file, 200)
	st := c.NetworkStats()
	const measured = 927
	if budget := uint64(measured + measured/20); st.RPCs > budget || st.RPCFailures != 0 {
		t.Fatalf("200 remote reads cost %d RPCs (%d failed); budget %d = %d measured + 5%%",
			st.RPCs, st.RPCFailures, budget, measured)
	}
}

// TestRemoteReadOfALargeFile: a file longer than one NFS read request may ask
// for (16 MiB) reads back whole through a mount with no local replica — the
// client asks for it in pieces.  Before, the read was refused with EINVAL.
func TestRemoteReadOfALargeFile(t *testing.T) {
	c := newTestCluster(t, 3, WithStorage(1<<15, 4096))
	side, err := c.NewVolume(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateVolume(side, 2); err != nil {
		t.Fatal(err)
	}
	m, err := c.MountVolume(0, side)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 17<<20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := m.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("/big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d of %d bytes: %v", len(got), len(data), err)
	}
}

// TestFirstAvailableAsksNobodyElse is the twin: candidates are produced
// lazily, so while host 1 answers, host 2 is sent nothing.  The network keeps
// no per-host count; it does count an RPC to an unreachable host as a
// failure, so host 2 is cut off and there must be none.
func TestFirstAvailableAsksNobodyElse(t *testing.T) {
	c, side, m, file := remoteReadCluster(t, FirstAvailable)
	c.Partition([]int{0, 1}, []int{2})
	c.ResetNetworkStats()
	readAll(t, m, file, 200)
	if st := c.NetworkStats(); st.RPCFailures != 0 {
		t.Fatalf("%d of %d RPCs went to host 2 while host 1 was up", st.RPCFailures, st.RPCs)
	}
	if got := c.Host(2).LocalReplica(side.h).TotalOpens(); got != 0 {
		t.Fatalf("host 2 saw %d opens", got)
	}
	// Host 2 is still a replica: with host 1 gone instead it serves them all.
	c.Heal()
	c.Partition([]int{0, 2}, []int{1})
	readAll(t, m, file, 16)
	if got := c.Host(2).LocalReplica(side.h).TotalOpens(); got != 16 {
		t.Fatalf("host 2 saw %d opens with host 1 cut off, want 16", got)
	}
}

// TestWarmRemoteReadAllocs: a warm ReadFile through a mount with no local
// replica allocates the slice it returns — nothing else.  Its walk is handed
// the logical layer's vnode for each path, its open publishes again the pin
// the last session of that vnode left, its messages are lent by wire's pool,
// the client vnodes and the encoded open and close are the ones made before,
// and the data is copied once, from the reply into the slice.  Invariants
// re-encode a directory on every hit, so they are disarmed.
func TestWarmRemoteReadAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	_, _, m, file := remoteReadCluster(t, MostRecent)
	path, want := file(3)
	got := testing.AllocsPerRun(200, func() {
		data, err := m.ReadFile(path)
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("read of %s: %d bytes, %v", path, len(data), err)
		}
	})
	if got > 1 {
		t.Errorf("a warm remote ReadFile allocates %v times, want at most 1: its slice", got)
	}
}

// TestWarmLocalReadAllocs is its twin on one host, whose replica is
// co-resident: a warm ReadFile allocates the slice it returns and nothing in
// the logical, physical or UFS layers.
func TestWarmLocalReadAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	c := newTestCluster(t, 1)
	m, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("f"), 8192)
	if err := m.MkdirAll("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/d/e/f", want); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		data, err := m.ReadFile("/d/e/f")
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("read of /d/e/f: %d bytes, %v", len(data), err)
		}
	})
	if got > 1 {
		t.Errorf("a warm local ReadFile allocates %v times, want at most 1: its slice", got)
	}
}
