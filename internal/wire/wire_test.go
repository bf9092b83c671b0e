package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/invariant"
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

// decodeEverything decodes b, reading the string through in (nil: no
// interning).
func decodeEverything(b []byte, in *Interner) (*everything, error) {
	d := NewDecoder(b)
	d.Version(everythingVersion)
	m := &everything{A: d.U8(), B: d.U16(), C: d.U32(), D: d.U64(), E: d.Bool()}
	copy(m.Raw[:], d.Take(len(m.Raw)))
	m.Blob = d.Bytes()
	m.S = d.StrIn(in)
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
		V:   vv.Of(map[ids.ReplicaID]uint64{1: 4, 2: 1}), Reps: []uint32{1, 2, 5}}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range []*everything{sample(), {V: vv.Vector{}}} {
		enc := m.encode()
		got, err := decodeEverything(enc, nil)
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
		if _, err := decodeEverything(enc[:n], nil); err == nil {
			t.Fatalf("prefix of %d bytes (of %d) decoded", n, len(enc))
		}
	}
}

func TestStrictness(t *testing.T) {
	enc := (&everything{V: vv.Vector{}}).encode()
	if _, err := decodeEverything(enc, nil); err != nil {
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
		if _, err := decodeEverything(b, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The same images with the defect repaired decode, so each case fails
	// for the reason it names.
	if m, err := decodeEverything(mutate(16, 1), nil); err != nil || !m.E {
		t.Errorf("bool byte 1: %+v %v", m, err)
	}
	if m, err := decodeEverything(mutate(46, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 3), nil); err != nil || m.V.Counter(9) != 3 {
		t.Errorf("vector with one live counter: %+v %v", m, err)
	}
}

// bytesPerCall is what f allocates per call, averaged over runs calls made on
// one P — testing.AllocsPerRun's method, for bytes.  TotalAlloc is the whole
// process's: measured around a single call, whatever another goroutine
// allocates meanwhile lands in it.
func bytesPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCountCapNeverAllocates: an element count the remaining bytes cannot
// back fails before anything is sized from it.
func TestCountCapNeverAllocates(t *testing.T) {
	in := append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, make([]byte, 64)...) // a count of ~34 billion
	for name, read := range map[string]func(*Decoder){
		"Count": func(d *Decoder) { d.Count(1) },
		"Bytes": func(d *Decoder) { d.Bytes() },
		"Str":   func(d *Decoder) { _ = d.Str() },
		"Path":  func(d *Decoder) { d.Path() },
	} {
		d := NewDecoder(in)
		if read(d); d.Err() == nil {
			t.Errorf("%s: absurd count accepted", name)
		}
		// The decoder and the error value are all the refusal builds.
		if got := bytesPerCall(100, func() { read(NewDecoder(in)) }); got > 1<<10 {
			t.Errorf("%s: %d bytes allocated per refusal", name, got)
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
		d.Path() != nil || d.Vol() != (ids.VolumeHandle{}) || d.VV().Len() != 0 {
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
		m, err := decodeEverything(b, nil)
		// Again through an interner of two strings, preloaded with every
		// string a length byte in b frames, so that it empties while it
		// loads: the same value and the same error.
		in := NewInterner(2)
		for i := range b {
			if end := i + 1 + int(b[i]); end <= len(b) {
				in.Intern(b[i+1 : end])
			}
		}
		mi, ierr := decodeEverything(b, in)
		if fmt.Sprint(err) != fmt.Sprint(ierr) || !reflect.DeepEqual(m, mi) {
			t.Fatalf("interned decode differs: %+v, %v\nplain: %+v, %v", mi, ierr, m, err)
		}
		if len(in.m) > 2 {
			t.Fatalf("an interner of capacity 2 holds %d strings", len(in.m))
		}
		if err != nil {
			return
		}
		if enc := m.encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}

// TestInternerEmptiesAtCapacity: an interner hands back the string it holds
// for bytes it has seen, without allocating, and a new string that finds it
// full empties it first.
func TestInternerEmptiesAtCapacity(t *testing.T) {
	in := NewInterner(2)
	a := in.Intern([]byte("alpha"))
	if got := in.Intern([]byte("alpha")); got != a || unsafe.StringData(got) != unsafe.StringData(a) {
		t.Fatal("a second Intern of the same bytes made a new string")
	}
	buf := []byte("alpha")
	if n := testing.AllocsPerRun(100, func() { in.Intern(buf) }); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
	in.Intern([]byte("beta"))
	if len(in.m) != 2 {
		t.Fatalf("holds %d strings, want 2", len(in.m))
	}
	g := in.Intern([]byte("gamma"))
	if g != "gamma" || len(in.m) != 1 {
		t.Fatalf("at capacity Intern gave %q and left %d strings, want gamma and 1", g, len(in.m))
	}
	if got := in.Intern(nil); got != "" || len(in.m) != 1 {
		t.Fatalf("the empty string is %q and was held", got)
	}
	d := NewDecoder(AppendString(nil, "gamma"))
	if got := d.StrIn(in); unsafe.StringData(got) != unsafe.StringData(g) || d.Finish() != nil {
		t.Fatalf("StrIn read %q, not the string the interner holds", got)
	}
}

// TestInternerUnderConcurrentDecoders is for the race detector: a server's
// interner is shared by the RPCs it serves at once.  Every decoder must read
// back its own bytes while the others fill and empty the interner.
func TestInternerUnderConcurrentDecoders(t *testing.T) {
	in := NewInterner(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("name-%d-%d", g, i%7)
				if got := NewDecoder(AppendString(nil, want)).StrIn(in); got != want {
					t.Errorf("decoded %q, want %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(in.m) > 4 {
		t.Fatalf("an interner of capacity 4 holds %d strings", len(in.m))
	}
}

// emptyPool lets go of every buffer the pool holds.
func emptyPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	clear(pool.classes[:])
	clear(pool.poisoned)
}

// TestMessagePool: a returned buffer is lent again, whole, and under
// invariants it comes back poisoned and a second return of it fails; a buffer
// over maxPooled is dropped, not kept.  Each n is lent a buffer of its class,
// the least power of two from minBuf that holds n bytes, and a returned
// buffer is lent again for any n of the largest class its capacity covers.
func TestMessagePool(t *testing.T) {
	defer invariant.ForceForTest(true)()
	emptyPool()
	b := append(GetBuf(5000), "message"...)
	PutBuf(b)
	for i, c := range b[:cap(b)] {
		if c != Poison {
			t.Fatalf("byte %d of a returned buffer is %#x, not poison", i, c)
		}
	}
	again := GetBuf(5000)
	if unsafe.SliceData(again) != unsafe.SliceData(b) || cap(again) != cap(b) {
		t.Fatal("a returned buffer was not lent again whole")
	}
	PutBuf(again)
	func() {
		defer func() {
			if _, ok := recover().(*invariant.Violation); !ok {
				t.Error("a buffer returned twice passed")
			}
		}()
		PutBuf(again)
	}()
	huge := make([]byte, 0, maxPooled+1)
	PutBuf(huge)
	if got := GetBuf(maxPooled + 1); unsafe.SliceData(got) == unsafe.SliceData(huge) {
		t.Fatal("a buffer over maxPooled was kept")
	}

	// GetBuf(0) is a real call: an empty version's install asks for it.
	emptyPool()
	for _, tc := range []struct{ n, cap, least int }{
		{0, 256, 0}, {1, 256, 0}, {256, 256, 0}, {257, 512, 257},
		{4096, 4096, 2049}, {65536, 65536, 32769}, {65537, 65537, 65537},
	} {
		b := GetBuf(tc.n)
		if len(b) != 0 || cap(b) != tc.cap {
			t.Fatalf("GetBuf(%d) lent a buffer of length %d and capacity %d, want 0 and %d", tc.n, len(b), cap(b), tc.cap)
		}
		for _, n := range []int{tc.least, tc.cap} {
			PutBuf(b)
			got := GetBuf(n)
			if kept := tc.cap <= maxPooled; kept != (unsafe.SliceData(got) == unsafe.SliceData(b)) {
				t.Fatalf("a returned buffer of capacity %d, asked for %d bytes: lent again %v, want %v", tc.cap, n, !kept, kept)
			}
			b = got
		}
	}

	// A buffer grown past its class is filed under the class it covers.
	grown := append(GetBuf(4096), make([]byte, 5000)...)
	if cap(grown) <= 4096 || cap(grown) >= 8192 {
		t.Fatalf("a 5000-byte append grew a 4096-byte buffer to %d bytes", cap(grown))
	}
	PutBuf(grown)
	if got := GetBuf(4097); unsafe.SliceData(got) == unsafe.SliceData(grown) {
		t.Fatalf("a buffer of capacity %d was lent for 4097 bytes: it covers only the 4096-byte class", cap(grown))
	}
	if got := GetBuf(4096); unsafe.SliceData(got) != unsafe.SliceData(grown) || cap(got) != cap(grown) {
		t.Fatalf("a buffer of capacity %d was not lent again whole for 4096 bytes", cap(grown))
	}

	// A class holds at most classBufs buffers.
	emptyPool()
	for range classBufs + 1 {
		PutBuf(make([]byte, 0, 300))
	}
	if n := len(pool.classes[0]); n != classBufs {
		t.Fatalf("the 256-byte class holds %d buffers, want %d", n, classBufs)
	}
	emptyPool()
}

// TestWriteAfterReturnFiresAtLend breaks the pool's rule — nothing writes
// through a view of a buffer once it is returned — and expects the armed
// check to say so when the pool lends the buffer again.
func TestWriteAfterReturnFiresAtLend(t *testing.T) {
	defer invariant.ForceForTest(true)()
	emptyPool()
	b := append(GetBuf(1000), "message"...)
	PutBuf(b)
	b[:cap(b)][700] = 'x'
	defer func() {
		if _, ok := recover().(*invariant.Violation); !ok {
			t.Fatal("lending a buffer written to after its return raised no violation")
		}
		emptyPool()
	}()
	GetBuf(1000)
}

// TestUnpoisonedBufferIsLentUnchecked: a buffer returned with invariants off
// was not poisoned, so arming them before it is lent again does not make its
// old bytes a violation.
func TestUnpoisonedBufferIsLentUnchecked(t *testing.T) {
	emptyPool()
	b := append(GetBuf(1000), "message"...)
	restore := invariant.ForceForTest(false)
	PutBuf(b)
	invariant.ForceForTest(true)
	defer restore()
	if again := GetBuf(1000); unsafe.SliceData(again) != unsafe.SliceData(b) {
		t.Fatal("a returned buffer was not lent again")
	}
	emptyPool()
}

// BenchmarkGetPutBuf lends and returns a buffer of each class in turn, with
// the pool holding no other buffer, and with every class full: a lend and a
// return each touch one class, so what the pool holds does not change what
// they cost.
func BenchmarkGetPutBuf(b *testing.B) {
	defer invariant.ForceForTest(false)()
	for _, held := range []int{0, classBufs} {
		b.Run(fmt.Sprintf("held=%d", held*len(pool.classes)), func(b *testing.B) {
			emptyPool()
			for c := range pool.classes {
				for range held {
					PutBuf(make([]byte, 0, minBuf<<c))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PutBuf(GetBuf(minBuf << (i % len(pool.classes))))
			}
		})
	}
	emptyPool()
}
