package repl

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// TestCodecV3RoundTrip: the delta extensions (request Have, pull Manifest +
// Missing) survive encode/decode canonically, and messages that never opt
// into v3 still encode the exact v2 layout.
func TestCodecV3RoundTrip(t *testing.T) {
	a1 := physical.HashBlock([]byte("block one"))
	a2 := physical.HashBlock([]byte("block two"))
	req := &request{
		ver:     wireV3,
		Op:      opPullBatchDelta,
		Vol:     ids.VolumeHandle{Allocator: 3, Volume: 9},
		Replica: 2,
		Pulls: []physical.PullRequest{
			{Dir: []ids.FileID{ids.RootFileID}, File: ids.FileID{Issuer: 1, Seq: 2},
				LocalVV: vv.Vector{1: 4}, HasLocal: true},
		},
		Have: []physical.BlockAddr{a1, a2},
	}
	enc := req.encode(nil)
	dec, err := decodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Op != opPullBatchDelta || len(dec.Have) != 2 || dec.Have[0] != a1 || dec.Have[1] != a2 {
		t.Fatalf("decoded: %+v", dec)
	}
	if enc2 := dec.encode(nil); !bytes.Equal(enc, enc2) {
		t.Fatal("v3 request re-encoding differs")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeRequest(enc[:n]); err == nil {
			t.Fatalf("v3 request truncated to %d bytes decoded successfully", n)
		}
	}

	// A message that never sets ver encodes the v2 layout: Have does not
	// travel, so old peers parse it exactly as before.
	v2 := *req
	v2.ver = 0
	v2enc := v2.encode(nil)
	noHave := v2
	noHave.Have = nil
	if !bytes.Equal(v2enc, noHave.encode(nil)) {
		t.Fatal("v2-encoded request leaks the Have section")
	}
	d2, err := decodeRequest(v2enc)
	if err != nil || len(d2.Have) != 0 {
		t.Fatalf("v2 request: %+v %v", d2, err)
	}

	resp := &response{
		ver: wireV3,
		Pulls: []wirePull{
			{Status: byte(physical.PullData),
				Aux:      physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Vector{1: 2}},
				Size:     9,
				Manifest: &physical.BlockManifest{Length: 9, Blocks: []physical.BlockAddr{a1}},
				Missing:  []physical.Block{{Addr: a1, Data: []byte("block one")}}},
			{Status: byte(physical.PullStale)},
		},
	}
	renc := resp.encode(nil)
	rdec, err := decodeResponse(renc)
	if err != nil {
		t.Fatal(err)
	}
	m := rdec.Pulls[0].Manifest
	if m == nil || m.Length != 9 || len(m.Blocks) != 1 || m.Blocks[0] != a1 {
		t.Fatalf("manifest: %+v", m)
	}
	if len(rdec.Pulls[0].Missing) != 1 || rdec.Pulls[0].Missing[0].Addr != a1 ||
		string(rdec.Pulls[0].Missing[0].Data) != "block one" {
		t.Fatalf("missing: %+v", rdec.Pulls[0].Missing)
	}
	if rdec.Pulls[1].Manifest != nil || rdec.Pulls[1].Missing != nil {
		t.Fatalf("stale entry grew delta fields: %+v", rdec.Pulls[1])
	}
	if renc2 := rdec.encode(nil); !bytes.Equal(renc, renc2) {
		t.Fatal("v3 response re-encoding differs")
	}
	for n := 0; n < len(renc); n++ {
		if _, err := decodeResponse(renc[:n]); err == nil {
			t.Fatalf("v3 response truncated to %d bytes decoded successfully", n)
		}
	}
}

// TestPullBatchDeltaOverWire: an append-one-block update ships only the new
// block across the wire, and the delta install reassembles the exact bytes.
func TestPullBatchDeltaOverWire(t *testing.T) {
	r := newRig(t)
	base := strings.Repeat("a", physical.ChecksumBlockSize) + strings.Repeat("b", physical.ChecksumBlockSize)
	fid := writeFile(t, r.lB, "big", base)
	if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
		t.Fatal(err)
	}
	// A chunks what it holds into the pool and advertises it.
	if err := r.lA.EnsureBlocks(physical.RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	have := r.lA.PoolAddrs()
	if len(have) != 2 {
		t.Fatalf("advertisement: %d blocks, want 2", len(have))
	}

	// B appends one block; A pulls the new version as a delta.
	tail := strings.Repeat("c", 100)
	writeFile(t, r.lB, "big", base+tail)
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
	if err := r.lA.InstallPulled(physical.RootPath(), fid, res); err != nil {
		t.Fatal(err)
	}
	rootA, _ := r.lA.Root()
	f, _ := rootA.Lookup("big")
	data, _ := vnode.ReadFile(f)
	if string(data) != base+tail {
		t.Fatalf("delta install assembled %d bytes, want %d", len(data), len(base)+len(tail))
	}
	// The installed version's blocks are now advertised for the next pull.
	if n := len(r.lA.PoolAddrs()); n != 3 {
		t.Fatalf("pool after install: %d blocks, want 3", n)
	}
	if problems, err := r.lA.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("fsck after delta install: %v %v", problems, err)
	}
}

// TestDeltaFallbackToV2Peer: a peer that speaks only wire v2 refuses the
// delta op once; the client falls back to whole-file pulls, remembers, and
// every copy sharing the client (WithRetry) sees the cached verdict.
func TestDeltaFallbackToV2Peer(t *testing.T) {
	r := newRig(t)
	fid := writeFile(t, r.lB, "f", "payload")
	r.server.SetMaxWireVersion(wireV2)

	reqs := []physical.PullRequest{{Dir: physical.RootPath(), File: fid, HasLocal: false}}
	r.net.ResetStats()
	results, err := r.client.PullBatchDelta(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.net.Stats(); s.RPCs != 2 {
		t.Fatalf("first delta call against v2 peer cost %d RPCs, want 2 (probe + fallback)", s.RPCs)
	}
	// The fallback is a whole-file answer: the data, and the manifest that
	// verifies it.
	if results[0].Status != physical.PullData || !results[0].Manifest.Verify([]byte("payload")) ||
		string(results[0].Data) != "payload" || results[0].Missing != nil {
		t.Fatalf("fallback answer: %+v", results[0])
	}
	if !r.client.noDelta.Load() {
		t.Fatal("v2 verdict not cached")
	}

	// Cached: the next batch goes straight to v2, one RPC.
	r.net.ResetStats()
	if _, err := r.client.PullBatchDelta(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if s := r.net.Stats(); s.RPCs != 1 {
		t.Fatalf("cached fallback cost %d RPCs, want 1", s.RPCs)
	}

	// Policy copies share the verdict.
	if c2 := r.client.WithRetry(r.client.policy); !c2.noDelta.Load() {
		t.Fatal("WithRetry copy lost the cached verdict")
	}

	// A v3-capable peer answers the delta op directly again.
	r.server.SetMaxWireVersion(0)
	c3 := NewClient(r.net.Host("a"), "b", r.lB.VolumeReplica())
	r.net.ResetStats()
	res3, err := c3.PullBatchDelta(reqs, nil)
	if err != nil || res3[0].Data != nil || len(res3[0].Missing) != 1 {
		t.Fatalf("v3 peer: %+v %v", res3, err)
	}
	if s := r.net.Stats(); s.RPCs != 1 {
		t.Fatalf("v3 delta call cost %d RPCs, want 1", s.RPCs)
	}
}

// TestMalformedManifestFromWire: the response decoder accepts any manifest
// length, so a peer can answer a pull with one that disagrees with its block
// list — at the extreme, a length within a block of 2^64 with no blocks at
// all, which once sized the puller's assembly buffer and killed the host.
// The puller must refuse the answer as a transient corrupt-payload error.
func TestMalformedManifestFromWire(t *testing.T) {
	r := newRig(t)
	evil := response{ver: wireV3, Pulls: []wirePull{{
		Status:   byte(physical.PullData),
		Aux:      physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Vector{2: 1}},
		Manifest: &physical.BlockManifest{Length: ^uint64(0)},
	}}}
	resp, err := decodeResponse(evil.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	results, err := pullsFromWire(1, resp)
	if err != nil {
		t.Fatal(err)
	}
	err = r.lA.InstallPulled(physical.RootPath(), ids.FileID{Issuer: 2, Seq: 99}, &results[0])
	if !errors.Is(err, physical.ErrCorrupt) {
		t.Fatalf("install of a wrapped-length manifest: %v, want ErrCorrupt", err)
	}
}
