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

// encode: kind(1) nlink(4) graftAlloc(4) graftVol(4) vv(...)
func (a *Aux) encode() []byte {
	out := make([]byte, 0, 16+12*len(a.VV))
	out = wire.AppendU8(out, byte(a.Type))
	out = wire.AppendU32(out, a.Nlink)
	out = wire.AppendVol(out, a.GraftVol)
	return a.VV.AppendBinary(out)
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
// seal starts.  Keeping the size constant makes every header update a
// single-block in-place overwrite — atomic on the device — so crash recovery
// never sees a torn attribute block.  It bounds the version vector at ~40
// replica entries, far beyond the experiments' replication factors.
const auxFileSize = 512

func auxBytes(a *Aux) ([]byte, error) {
	enc := a.encode()
	if len(enc) > auxFileSize {
		return nil, fmt.Errorf("physical: aux block overflow: %d bytes (version vector too wide)", len(enc))
	}
	out := make([]byte, auxFileSize)
	copy(out, enc)
	return out, nil
}

// writeAuxFile commits, by put (writeFresh or atomicReplace), a whole aux
// member as the named UFS file in container dir: header a then, unless m is nil
// (a directory's attr), the seal of m under a's vector.
func writeAuxFile(put func(vnode.Vnode, string, []byte) error, dir vnode.Vnode, name string, a *Aux, m *BlockManifest) error {
	img, err := auxBytes(a)
	if err != nil {
		return err
	}
	if m != nil {
		img = append(img, encodeSidecar(a.VV, m)...)
	}
	return put(dir, name, img)
}

// writeAuxVnode overwrites the header of an already-resolved aux member,
// leaving its seal as it is.
func writeAuxVnode(f vnode.Vnode, a *Aux) error {
	data, err := auxBytes(a)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	return err
}

// openAuxFile loads the named aux member from container dir — its header and
// current seal — returning its vnode as well for an in-place overwrite
// (writeAuxVnode, resealInPlace).  An empty aux member (a crash between
// creation and the first write) reads as "not stored": the file replica never
// finished materializing.
func openAuxFile(dir vnode.Vnode, name string) (vnode.Vnode, Aux, *sidecar, error) {
	f, err := dir.Lookup(name)
	if err != nil {
		return nil, Aux{}, nil, err
	}
	st, err := f.Getattr()
	if err != nil {
		return nil, Aux{}, nil, err
	}
	a, sc, err := loadAux(f, st.Size, true)
	if err != nil {
		return nil, Aux{}, nil, err
	}
	return f, a, sc, nil
}

// loadAux reads and decodes aux member f, size bytes long: only the header's
// block unless seal asks for the seal too.
func loadAux(f vnode.Vnode, size uint64, seal bool) (Aux, *sidecar, error) {
	if size == 0 {
		return Aux{}, nil, ErrNotStored
	}
	if !seal {
		size = min(size, auxFileSize)
	}
	data := make([]byte, size)
	n, err := f.ReadAt(data, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return Aux{}, nil, err
	}
	return decodeAuxMember(data[:n])
}

// readAuxFile is openAuxFile for a caller that only reads the header.
func readAuxFile(dir vnode.Vnode, name string) (Aux, error) {
	_, a, _, err := openAuxFile(dir, name)
	return a, err
}
