package physical

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/vv"
)

// TestDiskCodecGoldenBytes pins the three on-disk formats to images recorded
// from the hand-indexed encoders before they moved onto internal/wire: the
// port changed who writes the bytes, not the bytes, and every image decodes
// back to the value it was made from.
func TestDiskCodecGoldenBytes(t *testing.T) {
	check := func(what string, got []byte, wantHex string) {
		t.Helper()
		if hex.EncodeToString(got) != wantHex {
			t.Errorf("%s encodes to\n%x\nrecorded\n%s", what, got, wantHex)
		}
	}
	golden := func(wantHex string) []byte {
		b, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// A directory with a tombstone, a graft-table value and a 255-byte name.
	entries := []Entry{
		{EID: ids.FileID{Issuer: 1, Seq: 2}, Name: "plain", Child: ids.FileID{Issuer: 1, Seq: 3}, Kind: KFile},
		{EID: ids.FileID{Issuer: 2, Seq: 0x0102030405060708}, Name: "gone", Child: ids.FileID{Issuer: 2, Seq: 9}, Kind: KDir, Deleted: true},
		{EID: ids.FileID{Issuer: 3, Seq: 4}, Name: "r00000002", Child: ids.FileID{Issuer: 3, Seq: 5}, Kind: KFile, Value: "host-b:7000"},
		{EID: ids.FileID{Issuer: 0xfffffffe, Seq: 6}, Name: strings.Repeat("n", 255), Child: ids.FileID{Issuer: 4, Seq: 7}, Kind: KSymlink},
	}
	const dirHex = "0000000400000001000000000000000200000001000000000000000301000005706c61696e000000000002010203040506070800000002000000000000000902010004676f6e65000000000003000000000000000400000003000000000000000501000009723030303030303032000b686f73742d623a37303030fffffffe0000000000000006000000040000000000000007030000ff6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e0000"
	check("directory", encodeEntries(entries), dirHex)
	check("empty directory", encodeEntries(nil), "00000000")
	if got, err := decodeEntries(golden(dirHex)); err != nil || len(got) != len(entries) {
		t.Errorf("recorded directory decodes to %d entries, %v", len(got), err)
	} else {
		for i := range entries {
			if got[i] != entries[i] {
				t.Errorf("recorded directory entry %d decodes to %+v, want %+v", i, got[i], entries[i])
			}
		}
	}

	// An aux with a graft volume and a three-replica vector, padded to its block.
	a := Aux{Type: KGraft, Nlink: 2, VV: vv.Vector{1: 4, 3: 9, 0x01020304: 0x1122334455667788}, GraftVol: ids.VolumeHandle{Allocator: 8, Volume: 0x0a0b0c0d}}
	const auxHex = "0400000002000000080a0b0c0d00000003000000010000000000000004000000030000000000000009010203041122334455667788"
	check("aux", a.encode(), auxHex)
	block, err := auxBytes(&a)
	if err != nil || len(block) != auxFileSize || !bytes.Equal(block[:len(auxHex)/2], golden(auxHex)) || len(bytes.Trim(block[len(auxHex)/2:], "\x00")) != 0 {
		t.Errorf("aux block is not the recorded image zero-padded to %d bytes: %v", auxFileSize, err)
	}
	if got, err := decodeAux(block); err != nil || got.Type != a.Type || got.Nlink != a.Nlink || got.GraftVol != a.GraftVol || !got.VV.Equal(a.VV) {
		t.Errorf("recorded aux decodes to %+v, %v", got, err)
	}

	// Sidecars of 0, 1 and 3 blocks.
	sealed := vv.Vector{1: 3, 7: 1}
	for n, wantHex := range map[int]string{
		0: "465344430100000000020000000100000000000000030000000700000000000000010000000000000000",
		1: "46534443010000000002000000010000000000000003000000070000000000000001000000000000000508bb5e5d6eaac1049ede0893d30ed022",
		3: "465344430100000000020000000100000000000000030000000700000000000000010000000000002005d67c656e01756650d77717b0839985a0416317ed11e1666ed2a36373377df576a5edbbc87c3b9a6a3686ba2d06df9b55",
	} {
		var data []byte
		if n > 0 {
			data = make([]byte, (n-1)*ChecksumBlockSize+5)
			for i := range data {
				data[i] = byte(i % 251)
			}
		}
		m := ComputeManifest(data)
		check("sidecar", encodeSidecar(sealed, m), wantHex)
		if sc, err := decodeSidecar(golden(wantHex)); err != nil || !sc.Sealed.Equal(sealed) || !sc.Verify(data) {
			t.Errorf("recorded %d-block sidecar decodes to %+v, %v", n, sc, err)
		}
	}
}

// TestEntryCodecRoundTripProperty: any entry list survives the directory
// contents file encoding.
func TestEntryCodecRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32, names [][]byte, deleted []bool) bool {
		n := len(seeds)
		if len(names) < n {
			n = len(names)
		}
		if len(deleted) < n {
			n = len(deleted)
		}
		in := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			name := names[i]
			if len(name) > 200 {
				name = name[:200]
			}
			in = append(in, Entry{
				EID:     ids.FileID{Issuer: ids.ReplicaID(seeds[i]), Seq: uint64(seeds[i]) * 3},
				Name:    string(name),
				Child:   ids.FileID{Issuer: ids.ReplicaID(seeds[i] >> 3), Seq: uint64(i)},
				Kind:    Kind(1 + seeds[i]%4),
				Deleted: deleted[i],
				Value:   string(name),
			})
		}
		enc := encodeEntries(in)
		out, err := decodeEntries(enc)
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntryCodecRejectsCorruption(t *testing.T) {
	in := []Entry{{EID: ids.FileID{Issuer: 1, Seq: 2}, Name: "x", Child: ids.FileID{Issuer: 1, Seq: 3}, Kind: KFile}}
	enc := encodeEntries(in)
	for _, cut := range []int{1, 4, 10, len(enc) - 1} {
		if _, err := decodeEntries(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeEntries(append(enc, 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := decodeEntries(nil); err == nil {
		t.Error("nil accepted")
	}
	// The tombstone mark is a bool byte: the encoder writes 0 or 1 and the
	// decoder accepts nothing else.
	enc[4+24+1] = 2
	if _, err := decodeEntries(enc); err == nil {
		t.Error("tombstone byte 2 accepted")
	}
}

// TestAuxCodecRoundTripProperty: any aux block survives the fixed-size
// encoding.
func TestAuxCodecRoundTripProperty(t *testing.T) {
	f := func(kind byte, nlink uint32, counts []uint16, ga, gv uint32) bool {
		a := Aux{
			Type:  Kind(1 + kind%4),
			Nlink: nlink,
			VV:    make(map[ids.ReplicaID]uint64),
			GraftVol: ids.VolumeHandle{
				Allocator: ids.AllocatorID(ga),
				Volume:    ids.VolumeID(gv),
			},
		}
		for i, c := range counts {
			if i >= 8 {
				break
			}
			if c > 0 {
				a.VV[ids.ReplicaID(i)] = uint64(c)
			}
		}
		buf, err := auxBytes(&a)
		if err != nil {
			return false
		}
		if len(buf) != auxFileSize {
			return false
		}
		out, err := decodeAux(buf)
		if err != nil {
			return false
		}
		return out.Type == a.Type && out.Nlink == a.Nlink &&
			out.GraftVol == a.GraftVol && out.VV.Equal(a.VV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
