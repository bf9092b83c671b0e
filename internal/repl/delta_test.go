package repl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// TestPullBatchDeltaOverWire: an append-one-block update ships only the new
// block across the wire, and the delta install reassembles the exact bytes.
func TestPullBatchDeltaOverWire(t *testing.T) {
	r := newRig(t)
	old := strings.Repeat("a", physical.ChecksumBlockSize) + strings.Repeat("b", physical.ChecksumBlockSize)
	fid := writeFile(t, r.lB, "big", old)
	if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
		t.Fatal(err)
	}
	// A advertises the sealed manifest of the version it is about to replace.
	base := physical.DeltaBase{}
	r.lA.AddToBase(base, physical.RootPath(), fid)
	have := base.Have()
	if len(have) != 2 {
		t.Fatalf("advertisement: %d blocks, want 2", len(have))
	}

	// B appends one block; A pulls the new version as a delta.
	tail := strings.Repeat("c", 100)
	writeFile(t, r.lB, "big", old+tail)
	reqs := []physical.PullRequest{localVVOf(t, r.lA, fid)}
	r.net.ResetStats()
	results, err := r.client.PullBatchDelta(reqs, have)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.net.Stats(); s.RPCs != 1 {
		t.Fatalf("delta batch cost %d RPCs, want 1", s.RPCs)
	}
	res := &results[0]
	if res.Status != physical.PullData || res.Manifest == nil || res.Data != nil {
		t.Fatalf("delta answer: %+v", res)
	}
	if len(res.Manifest.Blocks) != 3 {
		t.Fatalf("manifest has %d blocks, want 3", len(res.Manifest.Blocks))
	}
	if len(res.Missing) != 1 || string(res.Missing[0].Data) != tail {
		t.Fatalf("missing blocks: %d, want exactly the appended tail", len(res.Missing))
	}
	if err := r.lA.InstallPulled(physical.RootPath(), fid, res, base); err != nil {
		t.Fatal(err)
	}
	rootA, _ := r.lA.Root()
	f, _ := rootA.Lookup("big")
	data, _ := vnode.ReadFile(f)
	if string(data) != old+tail {
		t.Fatalf("delta install assembled %d bytes, want %d", len(data), len(old)+len(tail))
	}
	// The installed version is what the next pull of the file advertises.
	next := physical.DeltaBase{}
	r.lA.AddToBase(next, physical.RootPath(), fid)
	if n := len(next.Have()); n != 3 {
		t.Fatalf("advertisement after install: %d blocks, want 3", n)
	}
	if problems, err := r.lA.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("fsck after delta install: %v %v", problems, err)
	}
}

// TestAdvertisementSelectsAnswerShape: there is one pull op, and the serving
// side picks the answer's shape from its input — no advertisement, the
// version ships whole beside its manifest; an advertisement, it ships as
// manifest + missing blocks.  One RPC either way.
func TestAdvertisementSelectsAnswerShape(t *testing.T) {
	r := newRig(t)
	fid := writeFile(t, r.lB, "f", "payload")
	reqs := []physical.PullRequest{{Dir: physical.RootPath(), File: fid}}

	r.net.ResetStats()
	whole, err := r.client.PullBatchDelta(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole[0].Status != physical.PullData || string(whole[0].Data) != "payload" ||
		!whole[0].Manifest.Verify([]byte("payload")) || whole[0].Missing != nil {
		t.Fatalf("answer to no advertisement: %+v", whole[0])
	}
	delta, err := r.client.PullBatchDelta(reqs, []physical.BlockAddr{physical.HashBlock([]byte("elsewhere"))})
	if err != nil {
		t.Fatal(err)
	}
	if delta[0].Status != physical.PullData || delta[0].Data != nil || delta[0].Manifest == nil ||
		len(delta[0].Missing) != 1 || string(delta[0].Missing[0].Data) != "payload" {
		t.Fatalf("answer to an advertisement: %+v", delta[0])
	}
	if s := r.net.Stats(); s.RPCs != 2 {
		t.Fatalf("two pulls cost %d RPCs, want 2", s.RPCs)
	}
}

// TestServerRefusesOtherWireVersions: a request led by any other version byte
// gets the permanent "bad request" answer and reaches no layer.
func TestServerRefusesOtherWireVersions(t *testing.T) {
	r := newRig(t)
	enc := (&request{Op: opPing, Vol: testVol, Replica: 2}).encode(nil)
	for _, v := range []byte{0, 2, wireVersion + 1, 255} {
		raw, err := r.net.Host("a").Call("b", Service, append([]byte{v}, enc[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(raw)
		if err != nil || resp.Class != classPermanent || resp.Err != "bad request" {
			t.Fatalf("wire version %d: %+v %v", v, resp, err)
		}
	}
}

// TestManifestlessDataNeverInstalls: a peer that answers a pull with data and
// no manifest offers nothing to verify the bytes against.  The answer becomes
// a per-entry error where it enters, nothing is installed, and the entry
// stays pending under backoff.  (The bytes used to be installed and sealed as
// good under the shipped vector.)
func TestManifestlessDataNeverInstalls(t *testing.T) {
	r := newRig(t)
	r.net.Host("evil").HandleRPC(Service, func(b []byte) ([]byte, error) {
		req, err := decodeRequest(b)
		if err != nil {
			return nil, err
		}
		resp := response{Pulls: make([]wirePull, len(req.Pulls))}
		for i := range resp.Pulls {
			resp.Pulls[i] = wirePull{Status: byte(physical.PullData), Data: []byte("whatever bytes arrived"), Size: 22,
				Aux: physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Vector{2: 1}}}
		}
		return resp.encode(nil), nil
	})
	evil := NewClient(r.net.Host("a"), "evil", r.lB.VolumeReplica())
	fid := ids.FileID{Issuer: 2, Seq: 99}
	r.lA.NoteNewVersion(physical.RootPath(), fid, 2)

	stats, _ := recon.PropagateOnce(r.lA, func(ids.ReplicaID) recon.Peer { return evil })
	if stats.FilesPulled != 0 || stats.Failures != 1 {
		t.Fatalf("stats %v: want no install and one failure", stats)
	}
	if _, err := r.lA.FileInfo(physical.RootPath(), fid); !errors.Is(err, physical.ErrNotStored) {
		t.Fatalf("unverifiable bytes were installed: %v", err)
	}
	if pend := r.lA.PendingVersions(); len(pend) != 1 || pend[0].Attempts != 1 {
		t.Fatalf("entry must stay pending under backoff: %+v", pend)
	}
	// The layer refuses on its own account too, before touching disk.
	err := r.lA.InstallPulled(physical.RootPath(), fid, &physical.PullResult{Status: physical.PullData, Data: []byte("x"),
		Aux: physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Vector{2: 1}}}, nil)
	if !errors.Is(err, physical.ErrCorrupt) {
		t.Fatalf("InstallPulled without a manifest: %v, want ErrCorrupt", err)
	}
}

// TestMalformedManifestFromWire: the response decoder accepts any manifest
// length, so a peer can answer a pull with one that disagrees with its block
// list — at the extreme, a length within a block of 2^64 with no blocks at
// all, which once sized the puller's assembly buffer and killed the host.
// The puller must refuse the answer as a transient corrupt-payload error.
func TestMalformedManifestFromWire(t *testing.T) {
	r := newRig(t)
	resp, err := decodeResponse(hugeManifestAnswer().encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	results, err := pullsFromWire(1, resp)
	if err != nil {
		t.Fatal(err)
	}
	err = r.lA.InstallPulled(physical.RootPath(), ids.FileID{Issuer: 2, Seq: 99}, &results[0], nil)
	if !errors.Is(err, physical.ErrCorrupt) {
		t.Fatalf("install of a wrapped-length manifest: %v, want ErrCorrupt", err)
	}
}
