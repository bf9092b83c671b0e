package physical

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/vv"
)

// auxBytes is header a as the auxFileSize-byte block it is written as.
func auxBytes(a *Aux) ([]byte, error) { return auxImage(a, nil) }

// TestAuxImageAllocatesOnce: a whole aux member — an 8-entry header encoded
// straight into its block, and its seal after it — is one allocation, and the
// same bytes as the header block and the seal encoded apart.
func TestAuxImageAllocatesOnce(t *testing.T) {
	c := map[ids.ReplicaID]uint64{}
	for r := ids.ReplicaID(1); r <= 8; r++ {
		c[r*3] = uint64(r) * 1000
	}
	v := vv.Of(c)
	a := Aux{Type: KFile, Nlink: 2, VV: v, GraftVol: ids.VolumeHandle{Allocator: 1, Volume: 7}}
	m := ComputeManifest(bytes.Repeat([]byte("seal"), 5000))
	img, err := auxImage(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := auxBytes(&a)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(hdr, encodeSidecar(a.VV, m)...); !bytes.Equal(img, want) {
		t.Fatalf("aux image differs from header block + seal:\n%x\n%x", img, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := auxImage(&a, m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("encoding an 8-entry aux header with its seal allocates %v times, want at most 1", n)
	}
}

// TestLentAuxImageIsTheSame: the in-place rewrite encodes the header into a
// buffer lent by wire's pool, which holds whatever its last borrower left; the
// padding is cleared, so the block is the same bytes as a zeroed one's.
func TestLentAuxImageIsTheSame(t *testing.T) {
	v := vv.Of(map[ids.ReplicaID]uint64{1: 7, 2: 14, 3: 21})
	a := Aux{Type: KFile, Nlink: 1, VV: v}
	m := ComputeManifest(bytes.Repeat([]byte("x"), 9000))
	for _, m := range []*BlockManifest{nil, m} {
		want, err := auxImage(&a, m)
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte{0xdb}, len(want))
		got, err := appendAuxImage(dirty[:0], &a, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("with seal %v: a dirty buffer encodes\n%x\nnot\n%x", m != nil, got, want)
		}
	}
}
