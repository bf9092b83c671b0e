package physical

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// The decoders of every durable format the layer still reads, fuzzed from
// round-trip images: none may panic or allocate without bound on bytes a
// crash, bit rot or a foreign writer left behind.

func FuzzDecodeSidecar(f *testing.F) {
	enc, _, _ := sampleSidecar()
	f.Add(enc)
	f.Add(flagBitSet(enc, 0)) // rejected: no flag is defined
	f.Add(encodeSidecar(vv.Vector{}, ComputeManifest(nil)))
	f.Add(encodeSidecar(vv.Of(map[ids.ReplicaID]uint64{2: 1}), &BlockManifest{Length: ^uint64(0)}))
	f.Add([]byte("FSDC"))
	f.Fuzz(func(t *testing.T, b []byte) {
		sc, err := decodeSidecar(b)
		if err != nil {
			return
		}
		// The decode is strict: whatever it accepts is exactly what the
		// encoder writes for the decoded value.
		if !sc.wellFormed() {
			t.Fatalf("accepted a manifest with %d blocks for length %d", len(sc.Blocks), sc.Length)
		}
		if enc := encodeSidecar(sc.Sealed, &sc.BlockManifest); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}

func FuzzDecodeAux(f *testing.F) {
	a := Aux{Type: KGraft, Nlink: 2, VV: vv.Of(map[ids.ReplicaID]uint64{1: 4, 3: 9}), GraftVol: ids.VolumeHandle{Allocator: 8, Volume: 1}}
	block, err := auxBytes(&a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(block)
	f.Add(a.encode())
	f.Add((&Aux{}).encode())
	f.Add([]byte{byte(KFile)})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := decodeAux(b)
		if err != nil {
			return
		}
		// The decode is strict up to the padding that fills the aux block:
		// what it accepts begins with exactly what the encoder writes for
		// the decoded value.
		if enc := a.encode(); !bytes.HasPrefix(b, enc) {
			t.Fatalf("re-encoding is not a prefix of the image:\n%x\n%x", b, enc)
		}
	})
}

// FuzzAuxMemberTail appends arbitrary bytes to an aux header as its seal tail:
// the header decodes to the same Aux whatever follows it, and a seal comes
// back only when the tail is a canonical one sealed under the header's vector.
func FuzzAuxMemberTail(f *testing.F) {
	a := Aux{Type: KFile, Nlink: 1, VV: vv.Of(map[ids.ReplicaID]uint64{1: 4, 3: 9})}
	header, err := auxBytes(&a)
	if err != nil {
		f.Fatal(err)
	}
	m := ComputeManifest([]byte("some data"))
	current := encodeSidecar(a.VV, m)
	f.Add(current)
	f.Add(encodeSidecar(vv.Of(map[ids.ReplicaID]uint64{1: 4, 3: 10}), m)) // stale
	f.Add(current[:len(current)-1])                                       // torn
	f.Add(append(slices.Clone(current), 0))                               // padded
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tail []byte) {
		got, seal, err := decodeAuxMember(append(slices.Clone(header), tail...))
		if err != nil {
			t.Fatalf("a valid header followed by %x does not decode: %v", tail, err)
		}
		if got.Type != a.Type || got.Nlink != a.Nlink || got.GraftVol != a.GraftVol || !got.VV.Equal(a.VV) {
			t.Fatalf("header decodes to %+v behind tail %x, want %+v", got, tail, a)
		}
		if seal == nil {
			return
		}
		if !seal.Sealed.Equal(a.VV) || !bytes.Equal(encodeSidecar(seal.Sealed, &seal.BlockManifest), tail) {
			t.Fatalf("tail %x was taken as the current seal %+v", tail, seal)
		}
	})
}

// FuzzDecodeEntries replays arbitrary bytes as a directory contents file.
// Whatever replays is a fold — one entry per id, in id order, each backed by
// the 30 fixed bytes of an entry, so nothing was sized by a count the bytes
// cannot back — and the compacted snapshot of it replays to the same entries.
func FuzzDecodeEntries(f *testing.F) {
	snap := encodeEntries([]Entry{
		{EID: fid(1, 2), Name: "hello", Child: fid(1, 3), Kind: KDir, Value: "v"},
		{EID: fid(2, 9), Name: "gone", Child: fid(2, 10), Kind: KFile, Deleted: true},
	})
	f.Add(appendRecord(slices.Clone(snap), []Entry{{EID: fid(1, 1), Name: "new", Child: fid(1, 4), Kind: KFile},
		{EID: fid(1, 2), Name: "hello", Child: fid(1, 3), Kind: KDir, Value: "v", Deleted: true}}))
	f.Add(encodeEntries(nil))
	f.Add(append(slices.Clone(snap), 0xff, 0xff, 0xff, 0xff)) // a record no file could back
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := replayEntries(b)
		if err != nil {
			return
		}
		if len(entries) > (len(b)-len(dirMagic)-1)/30 {
			t.Fatalf("%d entries from %d bytes", len(entries), len(b))
		}
		for i := 1; i < len(entries); i++ {
			if cmpEID(entries[i-1].EID, entries[i].EID) >= 0 {
				t.Fatalf("entries %d and %d are out of id order: %v, %v", i-1, i, entries[i-1].EID, entries[i].EID)
			}
		}
		snap := encodeEntries(entries)
		again, err := replayEntries(snap)
		if err != nil || !slices.Equal(again, entries) {
			t.Fatalf("the snapshot of %+v replays to %+v, %v", entries, again, err)
		}
	})
}

// FuzzDecodeOpenLookup fuzzes the §2.3 overloaded lookup from both ends: no
// name a client can send panics the parser, what it accepts is exactly what
// EncodeOpenLookup writes for the decoded fields (anything else is EINVAL),
// and every open or close the logical layer can encode decodes to what was
// encoded.
func FuzzDecodeOpenLookup(f *testing.F) {
	f.Add(EncodeOpenLookup(true, vnode.OpenRead, ids.VolumeHandle{Allocator: 8, Volume: 1}, "name"), true, uint32(1), uint32(8), uint32(1))
	f.Add(EncodeOpenLookup(false, 0, ids.VolumeHandle{}, "a:b:c"), false, uint32(0), uint32(0), uint32(0))
	f.Add(encPrefix+"open.:zz", true, ^uint32(0), ^uint32(0), ^uint32(0))
	f.Add("plain name", false, uint32(7), uint32(7), uint32(7))
	f.Fuzz(func(t *testing.T, s string, open bool, flags, alloc, vol uint32) {
		if o, fl, iss, name, err := DecodeOpenLookup(s); err != nil && err != vnode.EINVAL {
			t.Fatalf("%q: %v, want EINVAL", s, err)
		} else if err == nil && EncodeOpenLookup(o, fl, iss, name) != s {
			t.Fatalf("%q decodes to (%v, %x, %v, %q), which encode to %q", s, o, fl, iss, name, EncodeOpenLookup(o, fl, iss, name))
		}
		issuer := ids.VolumeHandle{Allocator: ids.AllocatorID(alloc), Volume: ids.VolumeID(vol)}
		enc := EncodeOpenLookup(open, vnode.OpenFlags(flags), issuer, s)
		gotOpen, gotFlags, gotIssuer, gotName, err := DecodeOpenLookup(enc)
		if err != nil || gotOpen != open || gotFlags != vnode.OpenFlags(flags) || gotIssuer != issuer || gotName != s {
			t.Fatalf("%q decodes to (%v, %x, %v, %q, %v)", enc, gotOpen, gotFlags, gotIssuer, gotName, err)
		}
		if len(enc) != EncOverhead+len(s) {
			t.Fatalf("%q: overhead %d, want the fixed %d", enc, len(enc)-len(s), EncOverhead)
		}
	})
}

// FuzzParseHandle: Handle's rendering round-trips through ParseHandle, and
// whatever else a client sends as a handle is ESTALE or parses to a value
// that renders back to exactly the bytes sent — never a panic.
func FuzzParseHandle(f *testing.F) {
	f.Add("d|"+ids.RootFileID.String(), uint32(3), uint64(9), uint8(1))
	f.Add(handleOf(KFile, []ids.FileID{ids.RootFileID, fid(2, 7)}, fid(2, 8)), uint32(0), uint64(0), uint8(0))
	f.Add("l|"+ids.RootFileID.String()+"|", ^uint32(0), ^uint64(0), uint8(2))
	f.Add("f|00000001000000000000000A", uint32(1), uint64(10), uint8(5))
	f.Fuzz(func(t *testing.T, h string, issuer uint32, seq uint64, depth uint8) {
		kind, dirPath, id, err := ParseHandle(h)
		if err != nil && err != vnode.ESTALE {
			t.Fatalf("%q: %v, want ESTALE", h, err)
		} else if err == nil && handleOf(kind, dirPath, id) != h {
			t.Fatalf("%q parses to (%v, %v, %v), which renders %q", h, kind, dirPath, id, handleOf(kind, dirPath, id))
		}
		path := []ids.FileID{ids.RootFileID}
		for i := 0; i < int(depth%8); i++ {
			path = append(path, fid(ids.ReplicaID(issuer)+ids.ReplicaID(i), seq^uint64(i)))
		}
		for _, k := range []Kind{KDir, KFile, KSymlink} {
			n := len(path) - 1
			h := handleOf(k, path[:n], path[n])
			gotKind, gotDir, gotID, err := ParseHandle(h)
			if err != nil || handleLetter(gotKind) != handleLetter(k) || !slices.Equal(gotDir, path[:n]) || gotID != path[n] {
				t.Fatalf("%q parses to (%v, %v, %v, %v)", h, gotKind, gotDir, gotID, err)
			}
		}
	})
}
