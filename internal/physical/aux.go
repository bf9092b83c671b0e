package physical

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
	"repro/internal/wire"
)

// Kind is a Ficus file kind, stored in the auxiliary attribute file.
type Kind byte

// Ficus file kinds.  KGraft is the special directory type marking a graft
// point (paper §4.3): "a graft point is a special file type used to
// indicate that a (specific) volume is to be transparently grafted at this
// point in the name space."
const (
	KFile Kind = iota + 1
	KDir
	KSymlink
	KGraft
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KFile:
		return "file"
	case KDir:
		return "dir"
	case KSymlink:
		return "symlink"
	case KGraft:
		return "graft"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// IsDir reports whether the kind is stored as a directory container
// (directories and graft points).
func (k Kind) IsDir() bool { return k == KDir || k == KGraft }

// Aux is the auxiliary replication attribute block of one file replica —
// the data the paper would put in the inode "if we were to modify the UFS"
// (§2.6).
type Aux struct {
	Type  Kind
	Nlink uint32
	VV    vv.Vector
	// GraftVol is set for graft points: the volume grafted here.  The
	// grafted volume is "fixed when the graft point is created" (§4.3).
	GraftVol ids.VolumeHandle
}

// encode: kind(1) nlink(4) graftAlloc(4) graftVol(4) vv(4+12n)
func (a *Aux) encode() []byte { return a.appendTo(make([]byte, 0, 17+12*a.VV.Len())) }

func (a *Aux) appendTo(dst []byte) []byte {
	dst = wire.AppendU8(dst, byte(a.Type))
	dst = wire.AppendU32(dst, a.Nlink)
	dst = wire.AppendVol(dst, a.GraftVol)
	return a.VV.AppendBinary(dst)
}

func decodeAux(p []byte) (Aux, error) {
	d := wire.NewDecoder(p)
	a := Aux{Type: Kind(d.U8()), Nlink: d.U32(), GraftVol: d.Vol(), VV: d.VV()}
	// Bytes past the vector are padding: the header is written as one
	// fixed-size block so an update is a single atomic block overwrite.
	if err := d.Err(); err != nil {
		return Aux{}, fmt.Errorf("physical: aux file: %w", err)
	}
	return a, nil
}

// decodeAuxMember decodes an aux member: its header, and after it a file's seal
// (sidecar.go), returned only when the tail decodes and is sealed under the
// header's vector.  A tail that is absent, stale or undecodable is no seal —
// unverifiable — and never makes the header unreadable.
func decodeAuxMember(p []byte) (Aux, *sidecar, error) {
	a, err := decodeAux(p[:min(len(p), auxFileSize)])
	if err != nil || len(p) <= auxFileSize {
		return a, nil, err
	}
	if sc, err := decodeSidecar(p[auxFileSize:]); err == nil && sc.Sealed.Equal(a.VV) {
		return a, &sc, nil
	}
	return a, nil, nil
}

// auxFileSize is the fixed on-disk size of an aux header, and where a file's
// seal starts.  A fixed size makes every header update one overwrite in place,
// inside the member's first device block, but that write is not atomic: a
// crash can land any prefix of the block (disk.FaultAfterWritesTorn).  A tear
// before the first byte that changes leaves the old header, one after the last
// the new; one in between splices the two, which may not decode (Check reports
// it and the copy wedges) or may decode to neither vector.  What holds is the
// order: the header is the last write of every in-place sequence
// (rewriteAuxLocked), so data and seal are whole before it is touched, and a
// spliced vector that differs from the seal's leaves the copy unverifiable,
// never vouched for.  ROADMAP item 16 is a header that survives its tear.  The
// size bounds the version vector at ~40 replica entries.
const auxFileSize = 512

// auxImage is the image of a whole aux member: header a encoded straight into
// its auxFileSize-byte block, then, unless m is nil (a directory's attr), the
// seal of m under a's vector — one allocation, sized for both.
func auxImage(a *Aux, m *BlockManifest) ([]byte, error) {
	n := auxFileSize
	if m != nil {
		n += sidecarLen(a.VV, m)
	}
	return appendAuxImage(make([]byte, 0, n), a, m)
}

// appendAuxImage encodes the image auxImage returns into buf, which is empty
// with room for it: a new one, or one lent by wire's pool, whose bytes are not
// zero — so the header's padding is cleared here.
func appendAuxImage(buf []byte, a *Aux, m *BlockManifest) ([]byte, error) {
	img := a.appendTo(buf)
	if len(img) > auxFileSize {
		return nil, fmt.Errorf("physical: aux block overflow: %d bytes (version vector too wide)", len(img))
	}
	n := len(img)
	img = img[:auxFileSize]
	clear(img[n:])
	if m != nil {
		img = appendSidecar(img, a.VV, m)
	}
	return img, nil
}

// writeAuxFile commits, by put (writeFresh or atomicReplace), a whole aux
// member as the named UFS file in container dir: header a then, unless m is nil
// (a directory's attr), the seal of m under a's vector.
func writeAuxFile(put func(vnode.Vnode, string, []byte) error, dir vnode.Vnode, name string, a *Aux, m *BlockManifest) error {
	img, err := auxImage(a, m)
	if err != nil {
		return err
	}
	return put(dir, name, img)
}

// readAuxFile reads the aux member name of container dir from the store: its
// header and current seal.  It is what the verifiers — Check, Recover, the
// scrubber — read, since they check the bytes at rest, which no stamp vouches
// for; every other reader goes through the aux cache (fileAuxLocked).
func readAuxFile(dir vnode.Vnode, name string) (Aux, *sidecar, error) {
	f, err := dir.Lookup(name)
	if err != nil {
		return Aux{}, nil, err
	}
	st, err := f.Getattr()
	if err != nil {
		return Aux{}, nil, err
	}
	return loadAux(f, st.Size)
}

// loadAux reads and decodes aux member f, size bytes long: the aux cache's
// miss path, and readAuxFile's.  Header and seal share the member's first
// device block for any file under about 880 KiB.  An empty aux member (a crash
// between creation and the first write) reads as "not stored": the file
// replica never finished materializing.
func loadAux(f vnode.Vnode, size uint64) (Aux, *sidecar, error) {
	if size == 0 {
		return Aux{}, nil, ErrNotStored
	}
	data := make([]byte, size)
	n, err := f.ReadAt(data, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return Aux{}, nil, err
	}
	return decodeAuxMember(data[:n])
}
