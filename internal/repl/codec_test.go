package repl

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vv"
	"repro/internal/wire"
)

func sampleRequest() *request {
	return &request{
		Op:      opPullBatchDelta,
		Vol:     ids.VolumeHandle{Allocator: 3, Volume: 9},
		Replica: 2,
		Dir:     []ids.FileID{ids.RootFileID, {Issuer: 1, Seq: 5}},
		File:    ids.FileID{Issuer: 2, Seq: 77},
		Pulls: []physical.PullRequest{
			{Dir: []ids.FileID{ids.RootFileID}, File: ids.FileID{Issuer: 1, Seq: 2},
				LocalVV: vv.Of(map[ids.ReplicaID]uint64{1: 4, 2: 1}), HasLocal: true},
			{Dir: nil, File: ids.FileID{Issuer: 3, Seq: 8}},
		},
		Have: []physical.BlockAddr{physical.HashBlock([]byte("held block"))},
	}
}

func sampleResponse() *response {
	return &response{
		Class: classOK,
		Entries: []physical.Entry{
			{EID: ids.FileID{Issuer: 1, Seq: 2}, Name: "hello", Child: ids.FileID{Issuer: 1, Seq: 3},
				Kind: physical.KDir, Deleted: false, Value: "v"},
			{EID: ids.FileID{Issuer: 2, Seq: 9}, Name: "gone", Child: ids.FileID{Issuer: 2, Seq: 10},
				Kind: physical.KFile, Deleted: true},
		},
		VV:       vv.Of(map[ids.ReplicaID]uint64{1: 7}),
		Aux:      physical.Aux{Type: physical.KGraft, Nlink: 2, VV: vv.Of(map[ids.ReplicaID]uint64{2: 3}), GraftVol: ids.VolumeHandle{Allocator: 8, Volume: 1}},
		Size:     4096,
		Data:     []byte("payload bytes"),
		Replicas: []ids.ReplicaID{1, 2, 5},
		Pulls: []wirePull{
			{Status: byte(physical.PullData), Data: []byte("file contents"),
				Aux: physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Of(map[ids.ReplicaID]uint64{1: 2, 3: 4})}, Size: 13,
				Manifest: physical.ComputeManifest([]byte("file contents"))},
			{Status: byte(physical.PullStale)},
			{Status: byte(physical.PullConcurrent), RemoteVV: vv.Of(map[ids.ReplicaID]uint64{4: 4})},
			{Status: byte(physical.PullError), Class: classPermanent, Err: "disk exploded"},
			deltaAnswer(),
		},
	}
}

// deltaAnswer is a pull answer to an advertisement: manifest plus the one
// block the puller lacked, no whole-file data.
func deltaAnswer() wirePull {
	held, sent := []byte("held block"), []byte("shipped block")
	return wirePull{Status: byte(physical.PullData),
		Aux:  physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Of(map[ids.ReplicaID]uint64{1: 2})},
		Size: uint64(len(held) + len(sent)),
		Manifest: &physical.BlockManifest{Length: uint64(len(held) + len(sent)),
			Blocks: []physical.BlockAddr{physical.HashBlock(held), physical.HashBlock(sent)}},
		Missing: []physical.Block{{Addr: physical.HashBlock(sent), Data: sent}}}
}

// hugeManifestAnswer is the PR 13 seed: a manifest whose length is within a
// block of 2^64 with no blocks at all.
func hugeManifestAnswer() *response {
	return &response{Pulls: []wirePull{{
		Status:   byte(physical.PullData),
		Aux:      physical.Aux{Type: physical.KFile, Nlink: 1, VV: vv.Of(map[ids.ReplicaID]uint64{2: 1})},
		Manifest: &physical.BlockManifest{Length: ^uint64(0)},
	}}}
}

// TestCodecRequestRoundTrip: decode(encode(x)) re-encodes byte-identically
// (the encoding is canonical), and the fields survive.
func TestCodecRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	enc := req.encode(nil)
	dec, err := decodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Op != req.Op || dec.Vol != req.Vol || dec.Replica != req.Replica || dec.File != req.File {
		t.Fatalf("scalar fields: %+v vs %+v", dec, req)
	}
	if len(dec.Dir) != 2 || dec.Dir[1] != req.Dir[1] {
		t.Fatalf("dir path: %v", dec.Dir)
	}
	if len(dec.Pulls) != 2 || !dec.Pulls[0].LocalVV.Equal(req.Pulls[0].LocalVV) ||
		!dec.Pulls[0].HasLocal || dec.Pulls[1].HasLocal {
		t.Fatalf("pulls: %+v", dec.Pulls)
	}
	if len(dec.Have) != 1 || dec.Have[0] != req.Have[0] {
		t.Fatalf("advertisement: %v", dec.Have)
	}
	if enc2 := dec.encode(nil); !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding differs:\n%x\n%x", enc, enc2)
	}
	// The zero request round-trips too.
	zero := &request{}
	dz, err := decodeRequest(zero.encode(nil))
	if err != nil || dz.Op != 0 || len(dz.Pulls) != 0 {
		t.Fatalf("zero request: %+v %v", dz, err)
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	resp := sampleResponse()
	enc := resp.encode(nil)
	dec, err := decodeResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size != resp.Size || string(dec.Data) != string(resp.Data) || len(dec.Replicas) != 3 {
		t.Fatalf("fields: %+v", dec)
	}
	if len(dec.Entries) != 2 || dec.Entries[0].Name != "hello" || !dec.Entries[1].Deleted ||
		dec.Entries[0].Kind != physical.KDir {
		t.Fatalf("entries: %+v", dec.Entries)
	}
	if !dec.Aux.VV.Equal(resp.Aux.VV) || dec.Aux.GraftVol != resp.Aux.GraftVol {
		t.Fatalf("aux: %+v", dec.Aux)
	}
	if len(dec.Pulls) != 5 || string(dec.Pulls[0].Data) != "file contents" ||
		dec.Pulls[3].Err != "disk exploded" || !dec.Pulls[2].RemoteVV.Equal(vv.Of(map[ids.ReplicaID]uint64{4: 4})) {
		t.Fatalf("pulls: %+v", dec.Pulls)
	}
	// The whole-file answer travels with its verifier and no blocks.
	if m := dec.Pulls[0].Manifest; !m.Verify([]byte("file contents")) || dec.Pulls[0].Missing != nil {
		t.Fatalf("whole-file answer: %+v", dec.Pulls[0])
	}
	if dec.Pulls[1].Manifest != nil || dec.Pulls[1].Missing != nil {
		t.Fatalf("stale entry grew shipping fields: %+v", dec.Pulls[1])
	}
	// The delta answer travels as manifest + missing blocks, no data.
	d, want := dec.Pulls[4], deltaAnswer()
	if d.Data != nil || len(d.Manifest.Blocks) != 2 || d.Manifest.Blocks[1] != want.Manifest.Blocks[1] ||
		len(d.Missing) != 1 || d.Missing[0].Addr != want.Missing[0].Addr || string(d.Missing[0].Data) != "shipped block" {
		t.Fatalf("delta answer: %+v", d)
	}
	if enc2 := dec.encode(nil); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding differs")
	}
}

// TestCodecGoldenBytes pins the layout: the images below were recorded from
// sampleRequest and sampleResponse (every field, a whole-file answer and a
// delta answer) before the codec moved onto internal/wire, so "the layout did
// not move" is a test and not only a benchmark's byte count.
func TestCodecGoldenBytes(t *testing.T) {
	const (
		goldenRequest = "030500000003000000090000000202000000000000000000000001000000010000000000000005000000020000000000" +
			"00004d020100000000000000000000000100000001000000000000000201000000020000000100000000000000040000" +
			"00020000000000000001000000000300000000000000080000000000010cce9289a9b8cd80c9a2aa2e6bfd659c"
		goldenResponse = "030000020000000100000000000000020568656c6c6f0000000100000000000000030200017600000002000000000000" +
			"000904676f6e6500000002000000000000000a0101000000000100000001000000000000000704000000020000000800" +
			"0000010000000100000002000000000000000300000000000010000d7061796c6f616420627974657303000000010000" +
			"000200000005050100000d66696c6520636f6e74656e7473010000000100000000000000000000000200000001000000" +
			"0000000002000000030000000000000004000000000000000d0000000001000000000000000d017bb6f9f7a47a63e684" +
			"925af3608c059e0002000000000000000000000000000000000000000000000000000000000000000000000300000000" +
			"00000000000000000000000000000000000000000000000000000001000000040000000000000004000006010d646973" +
			"6b206578706c6f6465640000000000000000000000000000000000000000000000000000000000000000010000000100" +
			"000001000000000000000000000001000000010000000000000002000000000000001700000000010000000000000017" +
			"020cce9289a9b8cd80c9a2aa2e6bfd659c641aa84276691e4f6cd2f3885a77b8a501641aa84276691e4f6cd2f3885a77" +
			"b8a50d7368697070656420626c6f636b"
	)
	if got := hex.EncodeToString(sampleRequest().encode(nil)); got != goldenRequest {
		t.Errorf("request layout moved:\n got %s\nwant %s", got, goldenRequest)
	}
	if got := hex.EncodeToString(sampleResponse().encode(nil)); got != goldenResponse {
		t.Errorf("response layout moved:\n got %s\nwant %s", got, goldenResponse)
	}
}

// TestEncodedLenIsExact: a reply is encoded into a buffer sized once from its
// payloads (Server.handle), so the size must be the encoding's — at every
// uvarint length boundary of a count, a string and a payload.
func TestEncodedLenIsExact(t *testing.T) {
	resps := []*response{sampleResponse(), hugeManifestAnswer(), {}}
	for _, n := range []int{127, 128, 16383, 16384} {
		big := bytes.Repeat([]byte{'x'}, n)
		resp := &response{Err: string(big), Data: big, VV: vv.Of(map[ids.ReplicaID]uint64{1: 2, 3: 4}),
			Entries:  make([]physical.Entry, n%256),
			Replicas: make([]ids.ReplicaID, n%200),
			Pulls: []wirePull{{Err: string(big[:n%300]), Data: big, RemoteVV: vv.Of(map[ids.ReplicaID]uint64{2: 1}),
				Manifest: &physical.BlockManifest{Length: uint64(n), Blocks: make([]physical.BlockAddr, n%130)},
				Missing:  []physical.Block{{Data: big}, {}}}}}
		for i := range resp.Entries {
			resp.Entries[i] = physical.Entry{Name: string(big[:i]), Value: string(big[:n%131])}
		}
		resps = append(resps, resp)
	}
	for i, resp := range resps {
		if got, want := resp.encodedLen(), len(resp.encode(nil)); got != want {
			t.Errorf("response %d: encodedLen %d, encoding %d bytes", i, got, want)
		}
	}
}

// TestCodecRejectsCorruption: every truncation of a valid message and a few
// corruptions fail with an error, never a panic or a hang.
func TestCodecRejectsCorruption(t *testing.T) {
	reqEnc := sampleRequest().encode(nil)
	for n := 0; n < len(reqEnc); n++ {
		if _, err := decodeRequest(reqEnc[:n]); err == nil {
			t.Fatalf("request truncated to %d bytes decoded successfully", n)
		}
	}
	respEnc := sampleResponse().encode(nil)
	for n := 0; n < len(respEnc); n++ {
		if _, err := decodeResponse(respEnc[:n]); err == nil {
			t.Fatalf("response truncated to %d bytes decoded successfully", n)
		}
	}
	// There is one wire version: a request or a response led by any other
	// version byte is rejected.
	for v := 0; v < 256; v++ {
		if v == wireVersion {
			continue
		}
		if _, err := decodeRequest(append([]byte{byte(v)}, reqEnc[1:]...)); err == nil {
			t.Fatalf("request at wire version %d accepted", v)
		}
		if _, err := decodeResponse(append([]byte{byte(v)}, respEnc[1:]...)); err == nil {
			t.Fatalf("response at wire version %d accepted", v)
		}
	}
	// Trailing garbage.
	if _, err := decodeResponse(append(respEnc[:len(respEnc):len(respEnc)], 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A count field inflated far past the message must fail before any
	// huge allocation (the count/remaining cap).
	huge := []byte{wireVersion, byte(opPullBatchDelta)}
	huge = wire.AppendVol(huge, ids.VolumeHandle{})
	huge = wire.AppendU32(huge, 0)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // dir count ~ 34 billion
	if _, err := decodeRequest(huge); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(sampleRequest().encode(nil))
	f.Add((&request{}).encode(nil))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequest(b)
		if err != nil {
			return
		}
		// The decode is strict: whatever it accepts is exactly what the
		// encoder writes for the decoded value.
		if enc := req.encode(nil); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	// sampleResponse carries a whole-file answer with its manifest and a
	// delta answer.
	f.Add(sampleResponse().encode(nil))
	f.Add(hugeManifestAnswer().encode(nil))
	f.Add((&response{}).encode(nil))
	f.Add([]byte{wireVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeResponse(b)
		if err != nil {
			return
		}
		if enc := resp.encode(nil); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
		// Payloads are handed out in place, each capped at its length, so an
		// append cannot write over the bytes that follow it in the buffer.
		capped := func(what string, p []byte) {
			if cap(p) != len(p) {
				t.Fatalf("%s: cap %d, len %d", what, cap(p), len(p))
			}
		}
		capped("Data", resp.Data)
		for i := range resp.Pulls {
			capped("Pulls[i].Data", resp.Pulls[i].Data)
			for j := range resp.Pulls[i].Missing {
				capped("Pulls[i].Missing[j].Data", resp.Pulls[i].Missing[j].Data)
			}
		}
	})
}

// TestDecodedBlocksDoNotOverlap: the decoder hands shipped blocks out as
// slices of the one response buffer; appending to one block must leave the
// next block's bytes, and the buffer, as they were.
func TestDecodedBlocksDoNotOverlap(t *testing.T) {
	a, b := []byte("first block"), []byte("second block")
	w := deltaAnswer()
	w.Missing = []physical.Block{{Addr: physical.HashBlock(a), Data: a}, {Addr: physical.HashBlock(b), Data: b}}
	w.Data = nil
	buf := (&response{Pulls: []wirePull{w}}).encode(nil)
	wantBuf := bytes.Clone(buf)
	resp, err := decodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Pulls[0].Missing
	if !bytes.Equal(got[0].Data, a) || !bytes.Equal(got[1].Data, b) {
		t.Fatalf("decoded blocks %q %q", got[0].Data, got[1].Data)
	}
	grown := append(got[0].Data, "XXXXXXXXXXXXXXXXXXXXXXXX"...)
	if !bytes.Equal(got[1].Data, b) || !bytes.Equal(buf, wantBuf) {
		t.Fatalf("an append to block 0 wrote over what follows it: block 1 reads %q", got[1].Data)
	}
	if !bytes.Equal(grown[:len(a)], a) {
		t.Fatalf("the appended block lost its own bytes: %q", grown)
	}
}

// gobResponse mirrors the pre-codec wire struct so the microbench can
// compare against what the per-call gob encoder used to cost.
type gobResponse struct {
	Err       string
	NotStored bool
	Entries   []physical.Entry
	VV        vv.Vector
	Aux       physical.Aux
	Size      uint64
	Data      []byte
}

func BenchmarkCodecResponse(b *testing.B) {
	resp := sampleResponse()
	enc := resp.encode(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = resp.encode(buf[:0])
		}
		b.ReportMetric(float64(len(buf)), "wireBytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeResponse(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The old transport: a fresh gob encoder per message re-ships type
	// metadata every call.
	g := &gobResponse{Err: "", Entries: resp.Entries, VV: resp.VV, Aux: resp.Aux, Size: resp.Size, Data: resp.Data}
	b.Run("gob-encode-baseline", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(g); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
		}
		b.ReportMetric(float64(n), "wireBytes")
	})
}

func BenchmarkCodecRequest(b *testing.B) {
	req := sampleRequest()
	enc := req.encode(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = req.encode(buf[:0])
		}
		b.ReportMetric(float64(len(buf)), "wireBytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRequest(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
