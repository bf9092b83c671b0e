package physical

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/vv"
)

// TestDiskCodecGoldenBytes pins the three on-disk formats to recorded images —
// the aux and the sidecar from the hand-indexed encoders before they moved onto
// internal/wire, the directory journal from its first encoder — and every image
// decodes back to the value it was made from.
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

	// A directory snapshot with a tombstone, a graft-table value and a 255-byte
	// name; then, appended, the record of one commit that upserts a new entry
	// and tombstones an old one.
	entries := []Entry{
		{EID: ids.FileID{Issuer: 1, Seq: 2}, Name: "plain", Child: ids.FileID{Issuer: 1, Seq: 3}, Kind: KFile},
		{EID: ids.FileID{Issuer: 2, Seq: 0x0102030405060708}, Name: "gone", Child: ids.FileID{Issuer: 2, Seq: 9}, Kind: KDir, Deleted: true},
		{EID: ids.FileID{Issuer: 3, Seq: 4}, Name: "r00000002", Child: ids.FileID{Issuer: 3, Seq: 5}, Kind: KFile, Value: "host-b:7000"},
		{EID: ids.FileID{Issuer: 0xfffffffe, Seq: 6}, Name: strings.Repeat("n", 255), Child: ids.FileID{Issuer: 4, Seq: 7}, Kind: KSymlink},
	}
	const snapHex = "4644495201000001943552bae500000001000000000000000200000001000000000000000301000005706c61696e000000000002010203040506070800000002000000000000000902010004676f6e65000000000003000000000000000400000003000000000000000501000009723030303030303032000b686f73742d623a37303030fffffffe0000000000000006000000040000000000000007030000ff6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e0000"
	check("directory snapshot", encodeEntries(entries), snapHex)
	check("empty directory", encodeEntries(nil), "4644495201")
	added := Entry{EID: ids.FileID{Issuer: 2, Seq: 1}, Name: "later", Child: ids.FileID{Issuer: 2, Seq: 3}, Kind: KFile}
	removed := entries[0]
	removed.Deleted = true
	const commitHex = "000000465b3aff86000000020000000000000001000000020000000000000003010000056c61746572000000000001000000000000000200000001000000000000000301010005706c61696e0000"
	check("commit record", appendRecord(nil, []Entry{added, removed}), commitHex)
	journal := golden(snapHex + commitHex)
	want := []Entry{removed, added, entries[1], entries[2], entries[3]}
	if got, err := replayEntries(journal); err != nil || !slices.Equal(got, want) {
		t.Errorf("recorded journal replays to %+v, %v", got, err)
	}
	// The whole-file image this format replaced is refused, not misread.
	oldDirHex := "0000000400000001000000000000000200000001000000000000000301000005706c61696e000000000002010203040506070800000002000000000000000902010004676f6e65000000000003000000000000000400000003000000000000000501000009723030303030303032000b686f73742d623a37303030fffffffe0000000000000006000000040000000000000007030000ff" + strings.Repeat("6e", 255) + "0000"
	if got, err := replayEntries(golden(oldDirHex)); err == nil {
		t.Errorf("the whole-file directory image replays to %d entries", len(got))
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

// TestEntryCodecRoundTripProperty: any run of entry changes, appended as
// commit records, replays to its fold — the last change of each entry id, in id
// order — and so does the snapshot of that fold, whose length snapshotLen
// counts.
func TestEntryCodecRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32, names [][]byte, deleted []bool) bool {
		n := min(len(seeds), len(names), len(deleted))
		log := encodeEntries(nil)
		var commit []Entry
		last := make(map[ids.FileID]Entry)
		for i := 0; i < n; i++ {
			name := names[i]
			if len(name) > 200 {
				name = name[:200]
			}
			e := Entry{
				EID:     ids.FileID{Issuer: ids.ReplicaID(seeds[i] % 7), Seq: uint64(seeds[i]) * 3},
				Name:    string(name),
				Child:   ids.FileID{Issuer: ids.ReplicaID(seeds[i] >> 3), Seq: uint64(i)},
				Kind:    Kind(1 + seeds[i]%4),
				Deleted: deleted[i],
				Value:   string(name),
			}
			last[e.EID] = e
			if commit = append(commit, e); seeds[i]%3 == 0 {
				log, commit = appendRecord(log, commit), nil
			}
		}
		log = appendRecord(log, commit)
		var want []Entry
		for _, e := range last {
			want = append(want, e)
		}
		slices.SortFunc(want, func(a, b Entry) int { return cmpEID(a.EID, b.EID) })
		got, err := replayEntries(log)
		if err != nil || !slices.Equal(got, want) {
			return false
		}
		snap := encodeEntries(got)
		again, err := replayEntries(snap)
		return err == nil && slices.Equal(again, want) && snapshotLen(got) == len(snap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEntryCodecRejectsCorruption: replay is strict — a header that is not
// this format's, or any record that is short, fails its checksum, does not
// decode or holds no entry, fails the whole file, wherever it sits.
func TestEntryCodecRejectsCorruption(t *testing.T) {
	first := Entry{EID: ids.FileID{Issuer: 1, Seq: 2}, Name: "x", Child: ids.FileID{Issuer: 1, Seq: 3}, Kind: KFile}
	second := Entry{EID: ids.FileID{Issuer: 1, Seq: 4}, Name: "y", Child: ids.FileID{Issuer: 1, Seq: 5}, Kind: KFile}
	head := encodeEntries([]Entry{first})
	enc := appendRecord(slices.Clone(head), []Entry{second})
	if got, err := replayEntries(enc); err != nil || !slices.Equal(got, []Entry{first, second}) {
		t.Fatalf("the intact journal replays to %+v, %v", got, err)
	}
	refused := func(what string, p []byte) {
		t.Helper()
		if got, err := replayEntries(p); err == nil {
			t.Errorf("%s: replays to %+v", what, got)
		}
	}
	refused("nil", nil)
	for _, cut := range []int{1, 4, len(head) + 1, len(head) + 8, len(enc) - 1} {
		refused(fmt.Sprintf("cut at %d", cut), enc[:cut])
	}
	newer := slices.Clone(enc)
	newer[4] = dirVersion + 1
	refused("an unknown version", newer)
	refused("trailing garbage", append(slices.Clone(enc), 0xff))
	refused("an empty record", append(slices.Clone(enc), make([]byte, 8)...))
	flipped := slices.Clone(enc)
	flipped[len(head)-3] ^= 1 // first's name, in the record before second's
	refused("a flipped name byte in a middle record", flipped)
	// The tombstone mark is a bool byte: the encoder writes 0 or 1 and the
	// decoder accepts nothing else, checksum or not.
	marked := slices.Clone(enc)
	body := marked[len(head)+8:]
	body[25] = 2
	binary.BigEndian.PutUint32(marked[len(head)+4:], crc32.ChecksumIEEE(body))
	refused("tombstone byte 2", marked)
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
