package physical

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/vnode"
	"repro/internal/vv"
)

var sampleData = bytes.Repeat([]byte("ficus integrity "), 600) // ~9.4 KiB: 3 blocks

func sampleSidecar() ([]byte, vv.Vector, *BlockManifest) {
	sealed := vv.Vector{1: 4, 3: 9}
	m := ComputeManifest(sampleData)
	return encodeSidecar(sealed, m), sealed, m
}

// flagBitSet returns a copy of sidecar image enc with flag bit set.
func flagBitSet(enc []byte, bit int) []byte {
	bad := append([]byte(nil), enc...)
	bad[len(sidecarMagic)+1] |= 1 << bit
	return bad
}

func TestSidecarRoundTrip(t *testing.T) {
	enc, sealed, m := sampleSidecar()
	sc, err := decodeSidecar(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Sealed.Equal(sealed) {
		t.Fatalf("seal: got %s want %s", sc.Sealed, sealed)
	}
	if sc.Length != m.Length || len(sc.Blocks) != 3 {
		t.Fatalf("manifest shape: got %+v want %+v", sc.BlockManifest, m)
	}
	for i := range m.Blocks {
		if sc.Blocks[i] != m.Blocks[i] {
			t.Fatalf("address %d: got %s want %s", i, sc.Blocks[i], m.Blocks[i])
		}
	}
	if !bytes.Equal(encodeSidecar(sc.Sealed, &sc.BlockManifest), enc) {
		t.Fatal("decode then encode changed the image")
	}
	// The empty file round-trips too: zero length, zero blocks.
	encEmpty := encodeSidecar(vv.New(), ComputeManifest(nil))
	if sc, err := decodeSidecar(encEmpty); err != nil || sc.Length != 0 || len(sc.Blocks) != 0 {
		t.Fatalf("empty sidecar: %+v %v", sc, err)
	}
}

// TestSidecarDecodeRejectsCorruption: every truncation of a valid sidecar
// and the classic header corruptions fail with an error, never a panic or a
// misparse (the decode is strict).
func TestSidecarDecodeRejectsCorruption(t *testing.T) {
	enc, _, _ := sampleSidecar()
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSidecar(enc[:n]); err == nil {
			t.Fatalf("sidecar truncated to %d bytes decoded successfully", n)
		}
	}
	mutate := func(off int, b byte) []byte {
		bad := append([]byte(nil), enc...)
		bad[off] = b
		return bad
	}
	// Padding: a trailing byte, or a whole spare address, no longer matches
	// the length.
	if _, err := decodeSidecar(append(append([]byte(nil), enc...), 0xAA)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeSidecar(append(append([]byte(nil), enc...), make([]byte, BlockAddrSize)...)); err == nil {
		t.Fatal("trailing address accepted")
	}
	for i := range sidecarMagic {
		if _, err := decodeSidecar(mutate(i, enc[i]^0xFF)); err == nil {
			t.Fatalf("corrupt magic byte %d accepted", i)
		}
	}
	if _, err := decodeSidecar(mutate(len(sidecarMagic), sidecarVersion+1)); err == nil {
		t.Fatal("unknown version accepted")
	}
	// No flag is defined — bit 0, which once marked block-pool references,
	// included.
	for bit := 0; bit < 8; bit++ {
		if _, err := decodeSidecar(flagBitSet(enc, bit)); err == nil {
			t.Fatalf("flag bit %d accepted", bit)
		}
	}
	// A vector entry with a zero counter decodes to a shorter vector, so the
	// image would not re-encode to itself.
	zero := append([]byte(nil), enc[:len(sidecarMagic)+2]...)
	zero = append(zero, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0) // {7: 0}
	zero = binary.BigEndian.AppendUint64(zero, 0)
	if _, err := decodeSidecar(zero); err == nil {
		t.Fatal("zero-counter vector accepted")
	}
	// A flipped length field either desynchronizes the derived block count
	// (decode fails) or — when the new length still needs the same number of
	// blocks — survives decode but can no longer verify the data.
	lenOff := len(enc) - 8 - BlockAddrSize*3 // length u64 sits before the 3 addresses
	for bit := 0; bit < 64; bit++ {
		sc, err := decodeSidecar(mutate(lenOff+bit/8, enc[lenOff+bit/8]^(1<<(bit%8))))
		if err == nil && sc.Verify(sampleData) {
			t.Fatalf("flipped length bit %d decoded AND verified", bit)
		}
	}
	// Absurd lengths fail before any allocation — including the lengths
	// within a block of 2^64, whose rounded-up block count used to wrap to 0.
	for _, length := range []uint64{1 << 60, ^uint64(0), ^uint64(0) - ChecksumBlockSize + 2} {
		for _, tail := range [][]byte{enc[lenOff+8:], nil} {
			huge := binary.BigEndian.AppendUint64(append([]byte(nil), enc[:lenOff]...), length)
			if _, err := decodeSidecar(append(huge, tail...)); err == nil {
				t.Fatalf("length %d with %d address bytes accepted", length, len(tail))
			}
		}
	}
}

func TestManifestVerify(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, ChecksumBlockSize+100)
	m := ComputeManifest(data)
	if !m.Verify(data) {
		t.Fatal("fresh manifest must verify")
	}
	// One flipped bit anywhere fails, in either block.
	for _, off := range []int{0, ChecksumBlockSize - 1, ChecksumBlockSize, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x01
		if m.Verify(mut) {
			t.Fatalf("flipped bit at %d verified", off)
		}
	}
	// Length changes fail even when the common prefix is intact.
	if m.Verify(data[:len(data)-1]) || m.Verify(append(append([]byte(nil), data...), 0)) {
		t.Fatal("length change verified")
	}
	// nil manifest never verifies; a tampered shape never verifies.
	var nilM *BlockManifest
	if nilM.Verify(nil) {
		t.Fatal("nil manifest verified")
	}
	short := &BlockManifest{Length: m.Length, Blocks: m.Blocks[:1]}
	if short.Verify(data) {
		t.Fatal("manifest with missing addresses verified")
	}
	if (&BlockManifest{Length: ^uint64(0)}).Verify(nil) {
		t.Fatal("manifest whose block count wraps verified")
	}
	if !ComputeManifest(nil).Verify(nil) {
		t.Fatal("empty data must verify against its own manifest")
	}
}

// TestInstallRejectsMalformedManifest: a pull answer is outside input.  A
// manifest whose length disagrees with its block list — in particular one
// within a block of 2^64, which used to round up to zero blocks, pass the
// shape check with an empty list and panic sizing the assembly buffer — is
// refused as corrupt before anything is allocated or touches disk.
func TestInstallRejectsMalformedManifest(t *testing.T) {
	defer invariant.ForceForTest(false)() // the mis-sized case below is a violation when armed
	l, _ := newLayer(t, 1)
	one := HashBlock(blockOf('x'))
	for _, m := range []*BlockManifest{
		{Length: ^uint64(0)},
		{Length: ^uint64(0) - ChecksumBlockSize + 2},
		{Length: 1},
		{Length: 0, Blocks: []BlockAddr{one}},
		{Length: 2 * ChecksumBlockSize, Blocks: []BlockAddr{one}},
	} {
		for _, data := range [][]byte{nil, []byte("x")} {
			r := &PullResult{Status: PullData, Data: data, Manifest: m, Aux: Aux{Type: KFile, Nlink: 1, VV: vv.New().Bump(2)},
				Missing: []Block{{Addr: one, Data: blockOf('x')}}}
			err := l.InstallPulled(RootPath(), fid(2, 9), r, nil)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest {%d, %d blocks}, %d data bytes: %v, want ErrCorrupt", m.Length, len(m.Blocks), len(data), err)
			}
		}
	}
	// A delta answer whose blocks have the right addresses but the wrong
	// sizes for their positions would seal addresses that are not those of
	// the file's 4 KiB chunks.
	a, b := blockOf('a')[:100], append(blockOf('b'), blockOf('b')[:100]...)
	r := &PullResult{Status: PullData, Aux: Aux{Type: KFile, Nlink: 1, VV: vv.New().Bump(2)},
		Manifest: &BlockManifest{Length: uint64(len(a) + len(b)), Blocks: []BlockAddr{HashBlock(a), HashBlock(b)}},
		Missing:  []Block{{Addr: HashBlock(a), Data: a}, {Addr: HashBlock(b), Data: b}}}
	if err := l.InstallPulled(RootPath(), fid(2, 9), r, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mis-sized blocks: %v, want ErrCorrupt", err)
	}
	if l.StoresFile(RootPath(), fid(2, 9)) {
		t.Fatal("a refused install left storage behind")
	}
}

// TestSparseGrowthSealsWithoutMaterialisingZeros: growing a ten-byte file by
// a gibibyte — by truncate, or by a write far past its end — seals the hole
// block by block from one constant address.  Neither the hole nor its hashes
// are ever built (that was a gibibyte and 262 144 SHA-256s), and nothing but
// the ten bytes kept is read from the device.
func TestSparseGrowthSealsWithoutMaterialisingZeros(t *testing.T) {
	tenByteFile := func() (*Layer, *disk.Device, vnode.Vnode) {
		l, dev := newLayer(t, 1)
		root, err := l.Root()
		if err != nil {
			t.Fatal(err)
		}
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("ten bytes.")); err != nil {
			t.Fatal(err)
		}
		return l, dev, f
	}
	for _, grow := range []struct {
		name string
		op   func(f vnode.Vnode, by int64) error
	}{
		{"truncate", func(f vnode.Vnode, by int64) error { return f.Truncate(uint64(10 + by)) }},
		{"write past the end", func(f vnode.Vnode, by int64) error {
			_, err := f.WriteAt([]byte("far out"), 10+by-7)
			return err
		}},
	} {
		_, dev, f := tenByteFile()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reads := dev.Stats().Reads
		if err := grow.op(f, 1<<30); err != nil {
			t.Fatalf("%s: %v", grow.name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
			t.Errorf("%s by 1 GiB allocated %d MiB, want a small multiple of its 4 MiB manifest", grow.name, got>>20)
		}
		if got := dev.Stats().Reads - reads; got > 8 {
			t.Errorf("%s by 1 GiB read %d device blocks, want a handful", grow.name, got)
		}

		// The same on a scale where a full read-back is affordable: the
		// seal must be the one the whole image hashes to.
		l, _, f := tenByteFile()
		if err := grow.op(f, 64<<20); err != nil {
			t.Fatalf("%s: %v", grow.name, err)
		}
		data, _, m, err := l.readVerifiedLocked(RootPath(), mustFid(t, f))
		if err != nil || m == nil || len(data) != 10+64<<20 {
			t.Fatalf("%s by 64 MiB: verified read-back: %d bytes, manifest %v, err %v", grow.name, len(data), m, err)
		}
	}
}
