package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/vv"
)

// everything is a message that uses every primitive once.
type everything struct {
	A    byte
	B    uint16
	C    uint32
	D    uint64
	E    bool
	Raw  [3]byte
	Blob []byte
	S    string
	F    ids.FileID
	P    []ids.FileID
	Vol  ids.VolumeHandle
	V    vv.Vector
	Reps []uint32
}

const everythingVersion = 7

func (m *everything) encode() []byte {
	dst := AppendU8(nil, everythingVersion)
	dst = AppendU8(dst, m.A)
	dst = AppendU16(dst, m.B)
	dst = AppendU32(dst, m.C)
	dst = AppendU64(dst, m.D)
	dst = AppendBool(dst, m.E)
	dst = append(dst, m.Raw[:]...)
	dst = AppendBytes(dst, m.Blob)
	dst = AppendString(dst, m.S)
	dst = AppendFID(dst, m.F)
	dst = AppendPath(dst, m.P)
	dst = AppendVol(dst, m.Vol)
	dst = m.V.AppendBinary(dst)
	dst = AppendCount(dst, len(m.Reps))
	for _, r := range m.Reps {
		dst = AppendU32(dst, r)
	}
	return dst
}

func decodeEverything(b []byte) (*everything, error) {
	d := NewDecoder(b)
	d.Version(everythingVersion)
	m := &everything{A: d.U8(), B: d.U16(), C: d.U32(), D: d.U64(), E: d.Bool()}
	copy(m.Raw[:], d.Take(len(m.Raw)))
	m.Blob = d.Bytes()
	m.S = d.Str()
	m.F = d.FID()
	m.P = d.Path()
	m.Vol = d.Vol()
	m.V = d.VV()
	if n := d.Count(4); n > 0 {
		m.Reps = make([]uint32, n)
		for i := range m.Reps {
			m.Reps[i] = d.U32()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func sample() *everything {
	return &everything{A: 0xab, B: 0xbeef, C: 0xdeadbeef, D: 1 << 40, E: true,
		Raw: [3]byte{1, 2, 3}, Blob: bytes.Repeat([]byte("blob"), 40), S: "string",
		F:   ids.FileID{Issuer: 2, Seq: 77},
		P:   []ids.FileID{ids.RootFileID, {Issuer: 1, Seq: 5}},
		Vol: ids.VolumeHandle{Allocator: 3, Volume: 9},
		V:   vv.Vector{1: 4, 2: 1}, Reps: []uint32{1, 2, 5}}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range []*everything{sample(), {V: vv.New()}} {
		enc := m.encode()
		got, err := decodeEverything(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v\nwant %+v", got, m)
		}
		if again := got.encode(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding differs:\n%x\n%x", enc, again)
		}
	}
}

// TestTruncationAtEveryPrefix: no proper prefix of a message decodes, and
// none panics, whichever primitive the cut lands in.
func TestTruncationAtEveryPrefix(t *testing.T) {
	enc := sample().encode()
	for n := 0; n < len(enc); n++ {
		if _, err := decodeEverything(enc[:n]); err == nil {
			t.Fatalf("prefix of %d bytes (of %d) decoded", n, len(enc))
		}
	}
}

func TestStrictness(t *testing.T) {
	enc := (&everything{V: vv.New()}).encode()
	if _, err := decodeEverything(enc); err != nil {
		t.Fatal(err)
	}
	mutate := func(at int, with ...byte) []byte {
		out := append([]byte(nil), enc[:at]...)
		out = append(out, with...)
		return append(out, enc[at+1:]...)
	}
	// Offsets in the zero message: version A B(2) C(4) D(8) fill 0-15, E is
	// at 16, Raw at 17-19, the blob count at 20, the string count at 21, and
	// the vector's u32 entry count ends at 46.
	cases := map[string][]byte{
		"bool byte 2":                mutate(16, 2),
		"non-minimal uvarint":        mutate(20, 0x80, 0x00),
		"non-minimal uvarint of 1":   append(mutate(20, 0x81, 0x00), 0),
		"overflowing uvarint":        mutate(20, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"vector with a zero counter": mutate(46, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0),
		"trailing byte":              append(append([]byte(nil), enc...), 0),
		"other version":              mutate(0, everythingVersion+1),
	}
	for name, b := range cases {
		if _, err := decodeEverything(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The same images with the defect repaired decode, so each case fails
	// for the reason it names.
	if m, err := decodeEverything(mutate(16, 1)); err != nil || !m.E {
		t.Errorf("bool byte 1: %+v %v", m, err)
	}
	if m, err := decodeEverything(mutate(46, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 3)); err != nil || m.V[9] != 3 {
		t.Errorf("vector with one live counter: %+v %v", m, err)
	}
}

// TestCountCapNeverAllocates: an element count the remaining bytes cannot
// back fails before anything is sized from it.
func TestCountCapNeverAllocates(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 billion
	for name, read := range map[string]func(*Decoder){
		"Count": func(d *Decoder) { d.Count(1) },
		"Bytes": func(d *Decoder) { d.Bytes() },
		"Str":   func(d *Decoder) { _ = d.Str() },
		"Path":  func(d *Decoder) { d.Path() },
	} {
		d := NewDecoder(append(append([]byte(nil), huge...), make([]byte, 64)...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(d)
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Errorf("%s: absurd count accepted", name)
		}
		// The error value is the only thing the refusal builds.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<10 {
			t.Errorf("%s: %d bytes allocated on the refusal path", name, got)
		}
	}
	// Count(minSize) divides: 5 elements of 12 bytes need 60, not 5.
	d := NewDecoder(append([]byte{5}, make([]byte, 59)...))
	if d.Count(12); d.Err() == nil {
		t.Error("count 5 x 12 bytes accepted with 59 bytes remaining")
	}
	d = NewDecoder(append([]byte{5}, make([]byte, 60)...))
	if n := d.Count(12); n != 5 || d.Err() != nil {
		t.Errorf("count 5 x 12 bytes with 60 remaining: %d %v", n, d.Err())
	}
}

// TestFirstErrorSticks: after a failure every read returns a zero value and
// consumes nothing, and the first error is the one reported.
func TestFirstErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if d.Bool() {
		t.Fatal("bool byte 2 read as true")
	}
	first := d.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	left := d.Len()
	if d.U8() != 0 || d.U16() != 0 || d.U32() != 0 || d.U64() != 0 || d.Bool() || d.Count(1) != 0 ||
		d.Take(1) != nil || d.Bytes() != nil || d.Str() != "" || d.FID() != (ids.FileID{}) ||
		d.Path() != nil || d.Vol() != (ids.VolumeHandle{}) || d.VV() != nil {
		t.Fatal("a read after the first failure returned a non-zero value")
	}
	d.Version(9)
	d.Fail("a later failure")
	if d.Len() != left {
		t.Fatalf("reads after the failure consumed %d bytes", left-d.Len())
	}
	if d.Err() != first || d.Finish() != first {
		t.Fatalf("first error replaced: %v, then %v", first, d.Finish())
	}
}

// FuzzDecoder drives the strict oracle over a message using every
// primitive: whatever decodes re-encodes to the very bytes decoded.
func FuzzDecoder(f *testing.F) {
	f.Add(sample().encode())
	f.Add((&everything{}).encode())
	f.Add([]byte{everythingVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeEverything(b)
		if err != nil {
			return
		}
		if enc := m.encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}
