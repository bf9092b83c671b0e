package repl

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

func localVVOf(t *testing.T, l *physical.Layer, fid ids.FileID) physical.PullRequest {
	t.Helper()
	st, err := l.FileInfo(physical.RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	return physical.PullRequest{Dir: physical.RootPath(), File: fid, LocalVV: st.Aux.VV, HasLocal: true}
}

// assembled lays the blocks a pull answer ships out as its manifest lists
// them: the whole version, for an answer to a pull that advertised nothing.
func assembled(r *physical.PullResult) []byte {
	var data []byte
	for _, addr := range r.Manifest.Blocks {
		if k := slices.IndexFunc(r.Missing, func(b physical.Block) bool { return b.Addr == addr }); k >= 0 {
			data = append(data, r.Missing[k].Data...)
		}
	}
	return data
}

// TestPullBatchConditionalSemantics drives one batch covering every
// conditional-pull outcome and checks the whole batch costs a single RPC.
func TestPullBatchConditionalSemantics(t *testing.T) {
	r := newRig(t)

	// dominated: B wrote again after A last synced — bytes must ship.
	domFID := writeFile(t, r.lB, "dom", "v1")
	// stale: A's copy will exactly equal B's — no bytes.
	staleFID := writeFile(t, r.lB, "stale", "same")
	// concurrent: both sides will update independently after syncing.
	concFID := writeFile(t, r.lB, "conc", "base")
	if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
		t.Fatal(err)
	}
	writeFile(t, r.lB, "dom", "v2")
	writeFile(t, r.lB, "conc", "b-side")
	writeFile(t, r.lA, "conc", "a-side")
	// directory: propagates by operation replay, never as file data.
	rootB, _ := r.lB.Root()
	d, err := rootB.Mkdir("subdir")
	if err != nil {
		t.Fatal(err)
	}
	da, _ := d.Getattr()
	dirFID, _ := ids.ParseFileID(da.FileID)
	// fresh: only B has it; A pulls unconditionally (HasLocal=false).
	freshFID := writeFile(t, r.lB, "fresh", "new file")

	reqs := []physical.PullRequest{
		localVVOf(t, r.lA, domFID),
		localVVOf(t, r.lA, staleFID),
		localVVOf(t, r.lA, concFID),
		{Dir: physical.RootPath(), File: ids.FileID{Issuer: 9, Seq: 999}, HasLocal: false}, // ghost
		{Dir: physical.RootPath(), File: dirFID, HasLocal: false},
		{Dir: physical.RootPath(), File: freshFID, HasLocal: false},
	}
	r.net.ResetStats()
	results, err := r.client.PullBatchDelta(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.net.Stats(); s.RPCs != 1 {
		t.Fatalf("batch of %d cost %d RPCs, want 1", len(reqs), s.RPCs)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	want := []physical.PullStatus{
		physical.PullData, physical.PullStale, physical.PullConcurrent,
		physical.PullNotStored, physical.PullIsDir, physical.PullData,
	}
	for i, w := range want {
		if results[i].Status != w {
			t.Fatalf("entry %d: status %v, want %v", i, results[i].Status, w)
		}
	}
	if got := assembled(&results[0]); string(got) != "v2" || results[0].Aux.Type != physical.KFile {
		t.Fatalf("dominated entry: %q %+v", got, results[0].Aux)
	}
	if results[1].Missing != nil || results[1].Manifest != nil {
		t.Fatal("stale entry shipped bytes")
	}
	bi, _ := r.lB.FileInfo(physical.RootPath(), concFID)
	if !results[2].RemoteVV.Equal(bi.Aux.VV) {
		t.Fatalf("concurrent entry remote vv %v, want %v", results[2].RemoteVV, bi.Aux.VV)
	}
	if got := assembled(&results[5]); string(got) != "new file" {
		t.Fatalf("fresh entry: %q", got)
	}
}

// TestPullBatchReplayIdempotent: a lost reply makes the server execute the
// batch twice; the client's retry must still converge to a single install,
// and re-announcing the already-pulled version must drop as stale without
// pulling again.
func TestPullBatchReplayIdempotent(t *testing.T) {
	r := newRig(t)
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
	r.net.ScriptFaults("a", "b", simnet.FaultReplyLost)
	stats, err := recon.PropagateOnce(r.lA, find)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("%v %v", stats, err)
	}
	if s := r.net.Stats(); s.RPCRepliesLost != 1 {
		t.Fatalf("scripted fault not consumed: %+v", s)
	}
	rootA, _ := r.lA.Root()
	f, _ := rootA.Lookup("f")
	data, _ := vnode.ReadFile(f)
	if string(data) != "v2" {
		t.Fatalf("%q", data)
	}
	// Replay of the same announcement: now stale, zero bytes pulled.
	r.lA.NoteNewVersion(physical.RootPath(), fid, 2)
	stats, err = recon.PropagateOnce(r.lA, find)
	if err != nil || stats.FilesPulled != 0 || stats.Failures != 0 {
		t.Fatalf("replay pass: %v %v", stats, err)
	}
	if n := len(r.lA.PendingVersions()); n != 0 {
		t.Fatalf("%d entries still pending after stale drop", n)
	}
}

// TestErrorClassesCrossWire: remote errors reconstruct with their sentinel
// identity and transience intact, so retry classification keeps working on
// the far side of an RPC.
func TestErrorClassesCrossWire(t *testing.T) {
	r := newRig(t)

	// No such replica at the peer: sentinel survives, and it classifies as
	// transient (replica sets change; the pass defers rather than aborts).
	bogus := NewClient(r.net.Host("a"), "b", ids.VolumeReplicaHandle{Vol: testVol, Replica: 42})
	err := bogus.Ping()
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if !retry.Transient(err) {
		t.Fatalf("ErrNoReplica off the wire must classify transient: %v", err)
	}

	// NotStored keeps its sentinel (already covered end-to-end above, but
	// pin the class mapping both ways).
	ghost := ids.FileID{Issuer: 9, Seq: 999}
	err = func() error { _, e := r.client.FileInfo(physical.RootPath(), ghost); return e }()
	if !errors.Is(err, physical.ErrNotStored) || retry.Transient(err) {
		t.Fatalf("NotStored off the wire: %v", err)
	}

	// An unknown op is a permanent peer error: message crosses, transience
	// does not appear.
	_, err = r.client.call(&request{Op: 99, Vol: testVol, Replica: 2})
	if err == nil || retry.Transient(err) {
		t.Fatalf("unknown op: %v", err)
	}

	// The class mapping itself round-trips for every class.
	cases := []error{
		nil,
		errors.New("boom"),
		&peerError{msg: "flaky", transient: true},
		physical.ErrNotStored,
		ErrNoReplica,
	}
	wantClass := []byte{classOK, classPermanent, classTransient, classNotStored, classNoReplica}
	for i, e := range cases {
		c := classOf(e)
		if c != wantClass[i] {
			t.Fatalf("classOf(%v) = %d, want %d", e, c, wantClass[i])
		}
		back := errFromClass(c, "msg")
		switch c {
		case classOK:
			if back != nil {
				t.Fatalf("classOK rebuilt as %v", back)
			}
		case classTransient:
			if !retry.Transient(back) {
				t.Fatalf("transient class rebuilt non-transient: %v", back)
			}
		case classPermanent:
			if retry.Transient(back) {
				t.Fatalf("permanent class rebuilt transient: %v", back)
			}
		case classNotStored:
			if !errors.Is(back, physical.ErrNotStored) {
				t.Fatalf("notStored class lost sentinel: %v", back)
			}
		case classNoReplica:
			if !errors.Is(back, ErrNoReplica) || !retry.Transient(back) {
				t.Fatalf("noReplica class: %v", back)
			}
		}
	}
}

// TestReconcileDirCostsTwoRPCs: reconciling a directory over the wire costs
// one DirEntries and one conditional pull for all of its files — whether or
// not any differ, and however many there are.  (It used to cost a FileInfo
// per file plus a FileData per stale file.)
func TestReconcileDirCostsTwoRPCs(t *testing.T) {
	for _, n := range []int{1, 32} {
		r := newRig(t)
		for i := 0; i < n; i++ {
			writeFile(t, r.lB, fmt.Sprintf("f%02d", i), "v1")
		}
		if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
			t.Fatal(err)
		}
		k := (n + 1) / 2
		for _, differing := range []int{0, k} {
			for i := 0; i < differing; i++ {
				writeFile(t, r.lB, fmt.Sprintf("f%02d", i), "v2")
			}
			r.net.ResetStats()
			stats, err := recon.ReconcileVolume(r.lA, r.client)
			if err != nil || stats.FilesPulled != differing {
				t.Fatalf("n=%d: stats %v err %v, want %d pulled", n, stats, err, differing)
			}
			if s := r.net.Stats(); s.RPCs != 2 {
				t.Fatalf("n=%d, %d differing: %d RPCs, want 2", n, differing, s.RPCs)
			}
		}
	}
}

// pullSizes wraps a client and records how many files each pull asks for.
type pullSizes struct {
	*Client
	sizes []int
}

func (p *pullSizes) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	p.sizes = append(p.sizes, len(reqs))
	return p.Client.PullBatchDelta(reqs, have)
}

// TestDirectoryNoticeCostsItsDirectory: over the wire, a directory's notice
// costs the one directory it names, however many files that holds.  A create
// announces the new file and its directory: the pass is one pull of both (the
// file ships, the directory answers is-dir) and the directory's DirEntries.
// With the file's own notice lost, one more pull carries exactly that file.  A
// remove leaves nothing to pull.
func TestDirectoryNoticeCostsItsDirectory(t *testing.T) {
	root := ids.RootFileID
	for _, n := range []int{1, 128} {
		r := newRig(t)
		for i := 0; i < n; i++ {
			writeFile(t, r.lB, fmt.Sprintf("f%03d", i), "v1")
		}
		if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
			t.Fatal(err)
		}
		peer := &pullSizes{Client: r.client}
		find := func(ids.ReplicaID) recon.Peer { return peer }
		pass := func(what string, rpcs int, sizes []int, check func(recon.Stats) bool) {
			t.Helper()
			r.net.ResetStats()
			peer.sizes = nil
			stats, err := recon.PropagateOnce(r.lA, find)
			if err != nil || !check(stats) {
				t.Fatalf("n=%d %s: stats %v err %v", n, what, stats, err)
			}
			if s := r.net.Stats(); s.RPCs != uint64(rpcs) || !slices.Equal(peer.sizes, sizes) {
				t.Fatalf("n=%d %s: %d RPCs, pulls of %v files; want %d and %v", n, what, s.RPCs, peer.sizes, rpcs, sizes)
			}
		}

		fid := writeFile(t, r.lB, "new1", "fresh")
		r.lA.NoteNewVersion(physical.RootPath(), fid, 2)
		r.lA.NoteNewVersion([]ids.FileID{}, root, 2)
		pass("create", 2, []int{2}, func(s recon.Stats) bool { return s.FilesPulled == 1 && s.EntriesAdopted == 1 })

		writeFile(t, r.lB, "new2", "fresh")
		r.lA.NoteNewVersion([]ids.FileID{}, root, 2)
		pass("create, file notice lost", 3, []int{1, 1}, func(s recon.Stats) bool { return s.FilesPulled == 1 && s.EntriesAdopted == 1 })

		rootB, _ := r.lB.Root()
		if err := rootB.Remove("f000"); err != nil {
			t.Fatal(err)
		}
		r.lA.NoteNewVersion([]ids.FileID{}, root, 2)
		pass("remove", 2, []int{1}, func(s recon.Stats) bool { return s.FilesPulled == 0 && s.EntriesDeleted == 1 })
	}
}
