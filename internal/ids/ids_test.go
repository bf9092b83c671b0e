package ids

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFileIDStringRoundTrip(t *testing.T) {
	cases := []FileID{
		{},
		RootFileID,
		{Issuer: 1, Seq: 2},
		{Issuer: 0xffffffff, Seq: 0xffffffffffffffff},
		{Issuer: 0xdeadbeef, Seq: 0x0123456789abcdef},
	}
	for _, want := range cases {
		s := want.String()
		if len(s) != 24 {
			t.Errorf("FileID %v string %q: length %d, want 24", want, s, len(s))
		}
		got, err := ParseFileID(s)
		if err != nil {
			t.Fatalf("ParseFileID(%q): %v", s, err)
		}
		if got != want {
			t.Errorf("round trip %v -> %q -> %v", want, s, got)
		}
	}
}

func TestFileIDStringRoundTripProperty(t *testing.T) {
	f := func(issuer uint32, seq uint64) bool {
		id := FileID{Issuer: ReplicaID(issuer), Seq: seq}
		got, err := ParseFileID(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFileIDStringMatchesSprintf pins the hand-rolled hex rendering to the
// format it replaced, which is also the UFS name of every stored file.
func TestFileIDStringMatchesSprintf(t *testing.T) {
	cases := []FileID{
		{},
		{Issuer: 0xffffffff},
		{Seq: 0xffffffffffffffff},
		{Issuer: 0xffffffff, Seq: 0xffffffffffffffff},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10000; i++ {
		// Shifted so short and long values both occur.
		cases = append(cases, FileID{
			Issuer: ReplicaID(rng.Uint32() >> uint(rng.Intn(32))),
			Seq:    rng.Uint64() >> uint(rng.Intn(64)),
		})
	}
	for _, id := range cases {
		s := id.String()
		if want := fmt.Sprintf("%08x%016x", uint32(id.Issuer), id.Seq); s != want {
			t.Fatalf("FileID %+v: String() = %q, want %q", id, s, want)
		}
		if got, err := ParseFileID(s); err != nil || got != id {
			t.Fatalf("ParseFileID(%q) = %+v, %v; want %+v", s, got, err, id)
		}
	}
}

func TestParseFileIDErrors(t *testing.T) {
	bad := []string{
		"",
		"00",
		"zzzzzzzzzzzzzzzzzzzzzzzz",
		"0000000100000000000000010",          // 25 chars
		"g0000001000000000000001",            // non-hex, 23 chars
		strings.Repeat("g", 24),              // non-hex issuer
		"00000001" + strings.Repeat("g", 16), // non-hex seq
	}
	for _, s := range bad {
		if _, err := ParseFileID(s); err == nil {
			t.Errorf("ParseFileID(%q): expected error", s)
		}
	}
}

func TestVolumeHandleRoundTrip(t *testing.T) {
	f := func(a, v uint32) bool {
		vh := VolumeHandle{Allocator: AllocatorID(a), Volume: VolumeID(v)}
		got, err := ParseVolumeHandle(vh.String())
		return err == nil && got == vh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseVolumeHandleErrors(t *testing.T) {
	bad := []string{"", "0", "xx.yy", "1.2.3", "00000001", "0000000z.00000001", "00000001.0000000z"}
	for _, s := range bad {
		if _, err := ParseVolumeHandle(s); err == nil {
			t.Errorf("ParseVolumeHandle(%q): expected error", s)
		}
	}
}

func TestFileHandleRoundTrip(t *testing.T) {
	f := func(a, v, issuer uint32, seq uint64) bool {
		h := FileHandle{
			Vol:  VolumeHandle{Allocator: AllocatorID(a), Volume: VolumeID(v)},
			File: FileID{Issuer: ReplicaID(issuer), Seq: seq},
		}
		got, err := ParseFileHandle(h.String())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFileHandleErrors(t *testing.T) {
	bad := []string{"", "nodots", "00000001.00000002.zz"}
	for _, s := range bad {
		if _, err := ParseFileHandle(s); err == nil {
			t.Errorf("ParseFileHandle(%q): expected error", s)
		}
	}
}

func TestReplicaHandleProjections(t *testing.T) {
	r := ReplicaHandle{
		Vol:     VolumeHandle{Allocator: 7, Volume: 9},
		File:    FileID{Issuer: 3, Seq: 42},
		Replica: 5,
	}
	if fh := r.FileHandle(); fh.Vol != r.Vol || fh.File != r.File {
		t.Errorf("FileHandle projection wrong: %v", fh)
	}
	if vr := r.VolumeReplica(); vr.Vol != r.Vol || vr.Replica != r.Replica {
		t.Errorf("VolumeReplica projection wrong: %v", vr)
	}
	if !strings.Contains(r.String(), r.File.String()) {
		t.Errorf("ReplicaHandle string %q missing file id", r)
	}
	vr := VolumeReplicaHandle{Vol: r.Vol, Replica: r.Replica}
	if !strings.HasPrefix(vr.String(), r.Vol.String()) {
		t.Errorf("VolumeReplicaHandle string %q missing volume handle", vr)
	}
}

func TestSequencerIssuesUniqueIDs(t *testing.T) {
	s := NewSequencer(4, 2)
	seen := make(map[FileID]bool)
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id.Issuer != 4 {
			t.Fatalf("issuer %d, want 4", id.Issuer)
		}
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
	if s.Last() != 1001 {
		t.Fatalf("Last() = %d, want 1001", s.Last())
	}
}

func TestSequencerStartZeroBumpsToOne(t *testing.T) {
	s := NewSequencer(1, 0)
	if id := s.Next(); id.Seq != 1 {
		t.Fatalf("first seq %d, want 1", id.Seq)
	}
}

func TestSequencerResume(t *testing.T) {
	s := NewSequencer(1, 2)
	s.Resume(100)
	if id := s.Next(); id.Seq != 101 {
		t.Fatalf("after Resume(100): seq %d, want 101", id.Seq)
	}
	// Resume to an older point must not move the sequencer backwards.
	s.Resume(5)
	if id := s.Next(); id.Seq != 102 {
		t.Fatalf("after Resume(5): seq %d, want 102", id.Seq)
	}
}

func TestIndependentSequencersNeverCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewSequencer(1, 2)
	b := NewSequencer(2, 2)
	seen := make(map[FileID]bool)
	for i := 0; i < 2000; i++ {
		var id FileID
		if rng.Intn(2) == 0 {
			id = a.Next()
		} else {
			id = b.Next()
		}
		if seen[id] {
			t.Fatalf("collision across independent sequencers: %v", id)
		}
		seen[id] = true
	}
}

func TestRootFileIDIsWellKnown(t *testing.T) {
	if RootFileID.IsNil() {
		t.Fatal("root file id must not be nil")
	}
	if NilFileID != (FileID{}) || !NilFileID.IsNil() {
		t.Fatal("nil file id sentinel broken")
	}
	// A sequencer for issuer 0 starting at 2 must never re-issue the root.
	s := NewSequencer(0, 2)
	for i := 0; i < 100; i++ {
		if s.Next() == RootFileID {
			t.Fatal("sequencer re-issued the root file id")
		}
	}
}
