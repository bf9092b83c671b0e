package physical

import (
	"errors"
	"io"
	"math"
	"strings"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// pvnode is the physical layer's vnode: one Ficus file replica.  It locates
// its storage by a fid path from the volume root (dirPath is the containing
// directory's full fid path, always starting with the root fid), preserving
// the parallel between the logical name space and on-disk layout (§2.6).
type pvnode struct {
	l       *Layer
	fid     ids.FileID
	kind    Kind
	dirPath []ids.FileID // fid path of the containing directory; nil for the root itself
}

// Root returns the volume root directory vnode.
func (l *Layer) Root() (vnode.Vnode, error) {
	return &pvnode{l: l, fid: ids.RootFileID, kind: KDir}, nil
}

// Sync is a no-op: the substrate is write-through.
func (l *Layer) Sync() error { return nil }

// selfPath is the fid path of this node when it is a directory.
func (v *pvnode) selfPath() []ids.FileID {
	if v.dirPath == nil && v.fid == ids.RootFileID {
		return []ids.FileID{ids.RootFileID}
	}
	p := make([]ids.FileID, 0, len(v.dirPath)+1)
	p = append(p, v.dirPath...)
	return append(p, v.fid)
}

// container returns the UFS directory holding this node's storage: its own
// container for directories, the parent's container for files.
func (v *pvnode) container() (vnode.Vnode, error) {
	if v.kind.IsDir() {
		return v.l.containerOf(v.selfPath())
	}
	return v.l.containerOf(v.dirPath)
}

// Handle encodes kind and fid path; Resolve reverses it.
func (v *pvnode) Handle() string {
	var sb strings.Builder
	if v.kind.IsDir() {
		sb.WriteString("d")
	} else if v.kind == KSymlink {
		sb.WriteString("l")
	} else {
		sb.WriteString("f")
	}
	for _, f := range v.dirPath {
		sb.WriteString("|")
		sb.WriteString(f.String())
	}
	sb.WriteString("|")
	sb.WriteString(v.fid.String())
	return sb.String()
}

// Resolve recovers a vnode from a handle (the nfs.Resolver contract).
func (l *Layer) Resolve(handle string) (vnode.Vnode, error) {
	parts := strings.Split(handle, "|")
	if len(parts) < 2 {
		return nil, vnode.ESTALE
	}
	var kind Kind
	switch parts[0] {
	case "d":
		kind = KDir
	case "f":
		kind = KFile
	case "l":
		kind = KSymlink
	default:
		return nil, vnode.ESTALE
	}
	fids := make([]ids.FileID, 0, len(parts)-1)
	for _, p := range parts[1:] {
		f, err := ids.ParseFileID(p)
		if err != nil {
			return nil, vnode.ESTALE
		}
		fids = append(fids, f)
	}
	fid := fids[len(fids)-1]
	dirPath := fids[:len(fids)-1]
	if len(dirPath) == 0 && fid == ids.RootFileID {
		return &pvnode{l: l, fid: fid, kind: KDir}, nil
	}
	v := &pvnode{l: l, fid: fid, kind: kind, dirPath: dirPath}
	// Verify the node still exists (stateless re-resolution).
	if _, err := v.Getattr(); err != nil {
		if vnode.AsErrno(err) == vnode.ENOSTOR {
			return nil, vnode.ENOSTOR
		}
		return nil, vnode.ESTALE
	}
	// Refresh the kind from storage (a handle may have been minted before a
	// graft point's aux was readable, and clients can't tell KDir from
	// KGraft anyway).
	return v, nil
}

func (v *pvnode) Lookup(name string) (vnode.Vnode, error) {
	if IsEncodedLookup(name) {
		return v.encodedLookup(name)
	}
	return v.lookupPlain(name)
}

func (v *pvnode) lookupPlain(name string) (vnode.Vnode, error) {
	if !v.kind.IsDir() {
		return nil, vnode.ENOTDIR
	}
	if len(name) > SubstrateMaxName {
		return nil, vnode.ENAMETOOLONG
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	return v.lookupLocked(name)
}

func (v *pvnode) lookupLocked(name string) (vnode.Vnode, error) {
	cont, d, err := v.dirStateLocked()
	if err != nil {
		return nil, err
	}
	i := d.find(name)
	if i < 0 {
		return nil, vnode.ENOENT
	}
	return v.childVnodeLocked(cont, d.entries[i])
}

// childVnodeLocked builds the vnode for entry e, verifying local storage.
func (v *pvnode) childVnodeLocked(cont vnode.Vnode, e Entry) (vnode.Vnode, error) {
	child := &pvnode{l: v.l, fid: e.Child, kind: e.Kind, dirPath: v.selfPath()}
	if e.Kind.IsDir() {
		if _, err := cont.Lookup(prefixDir + e.Child.String()); err != nil {
			if vnode.AsErrno(err) == vnode.ENOENT {
				return nil, vnode.ENOSTOR
			}
			return nil, err
		}
		return child, nil
	}
	if _, err := cont.Lookup(prefixAux + e.Child.String()); err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return nil, vnode.ENOSTOR
		}
		return nil, err
	}
	return child, nil
}

// encodedLookup executes an open or close shipped through Lookup (§2.3).
func (v *pvnode) encodedLookup(name string) (vnode.Vnode, error) {
	open, _, _, realName, err := DecodeOpenLookup(name)
	if err != nil {
		return nil, err
	}
	child, err := v.lookupPlain(realName)
	if err != nil {
		return nil, err
	}
	cv := child.(*pvnode)
	v.l.mu.Lock()
	if open {
		v.l.opens[cv.fid]++
		v.l.openTotal++
	} else if v.l.opens[cv.fid] > 0 {
		v.l.opens[cv.fid]--
	}
	v.l.mu.Unlock()
	return child, nil
}

// dirStateLocked returns this directory's container and, on loan, its image.
func (v *pvnode) dirStateLocked() (vnode.Vnode, *dirImage, error) {
	cont, err := v.container()
	if err != nil {
		return nil, nil, mapStoreErr(err)
	}
	d, err := v.l.dirLocked(cont)
	return cont, d, err
}

func mapStoreErr(err error) error {
	if errors.Is(err, ErrNotStored) {
		return vnode.ENOSTOR
	}
	return err
}

func (v *pvnode) Create(name string, excl bool) (vnode.Vnode, error) {
	return v.createKind(name, excl, KFile, "")
}

func (v *pvnode) Symlink(name, target string) error {
	_, err := v.createKind(name, true, KSymlink, target)
	return err
}

func (v *pvnode) createKind(name string, excl bool, kind Kind, data string) (vnode.Vnode, error) {
	if !v.kind.IsDir() {
		return nil, vnode.ENOTDIR
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	cont, d, err := v.dirStateLocked()
	if err != nil {
		return nil, err
	}
	if i := d.find(name); i >= 0 {
		if excl || d.entries[i].Kind != kind {
			return nil, vnode.EEXIST
		}
		return v.childVnodeLocked(cont, d.entries[i])
	}
	fid, err := v.l.nextIDLocked()
	if err != nil {
		return nil, err
	}
	eid, err := v.l.nextIDLocked()
	if err != nil {
		return nil, err
	}
	// Storage first — the data file, then its aux with its seal — then the
	// entry: a crash in between leaves members no live entry names, which
	// Recover reclaims, never a dangling entry.  So none of them needs a shadow.
	if err := writeFresh(cont, prefixData+fid.String(), []byte(data)); err != nil {
		return nil, err
	}
	aux := Aux{Type: kind, Nlink: 1, VV: v.l.bumpVV(nil)}
	if err := writeAuxFile(writeFresh, cont, prefixAux+fid.String(), &aux, ComputeManifest([]byte(data))); err != nil {
		return nil, err
	}
	if _, err := v.l.commitDirLocked(cont, d, []Entry{{EID: eid, Name: name, Child: fid, Kind: kind}}, v.l.bumpVV); err != nil {
		return nil, err
	}
	return &pvnode{l: v.l, fid: fid, kind: kind, dirPath: v.selfPath()}, nil
}

func (v *pvnode) Mkdir(name string) (vnode.Vnode, error) {
	return v.mkdirKind(name, KDir, ids.VolumeHandle{})
}

// MkGraft creates a graft point: a special directory that names a volume to
// be transparently grafted here (§4.3).  It is reached by type assertion
// from the volume management code.
func (v *pvnode) MkGraft(name string, target ids.VolumeHandle) (vnode.Vnode, error) {
	return v.mkdirKind(name, KGraft, target)
}

func (v *pvnode) mkdirKind(name string, kind Kind, graftVol ids.VolumeHandle) (vnode.Vnode, error) {
	if !v.kind.IsDir() {
		return nil, vnode.ENOTDIR
	}
	if err := checkName(name); err != nil {
		return nil, err
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	cont, d, err := v.dirStateLocked()
	if err != nil {
		return nil, err
	}
	if d.find(name) >= 0 {
		return nil, vnode.EEXIST
	}
	fid, err := v.l.nextIDLocked()
	if err != nil {
		return nil, err
	}
	eid, err := v.l.nextIDLocked()
	if err != nil {
		return nil, err
	}
	aux := Aux{Type: kind, Nlink: 1, VV: v.l.bumpVV(nil), GraftVol: graftVol}
	if err := v.l.newContainerLocked(cont, fid, &aux); err != nil {
		return nil, err
	}
	if _, err := v.l.commitDirLocked(cont, d, []Entry{{EID: eid, Name: name, Child: fid, Kind: kind}}, v.l.bumpVV); err != nil {
		return nil, err
	}
	return &pvnode{l: v.l, fid: fid, kind: kind, dirPath: v.selfPath()}, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return vnode.EINVAL
	}
	if len(name) > SubstrateMaxName-1 { // the container prefix consumes 1
		return vnode.ENAMETOOLONG
	}
	if strings.ContainsAny(name, "/\x00") {
		return vnode.EINVAL
	}
	if strings.HasPrefix(name, encPrefix) {
		return vnode.EINVAL // reserved for the open/close encoding
	}
	return nil
}

func (v *pvnode) Readlink() (string, error) {
	if v.kind != KSymlink {
		return "", vnode.EINVAL
	}
	data, err := v.readAll()
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Open and Close arrive directly when the logical layer is co-resident (no
// NFS in between); they update the same open-count bookkeeping as the
// encoded path.
func (v *pvnode) Open(vnode.OpenFlags) error {
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	v.l.opens[v.fid]++
	v.l.openTotal++
	return nil
}

func (v *pvnode) Close(vnode.OpenFlags) error {
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	if v.l.opens[v.fid] > 0 {
		v.l.opens[v.fid]--
	}
	return nil
}

// dataFile locates this file's UFS data file.  Caller holds l.mu.
func (v *pvnode) dataFile() (vnode.Vnode, error) {
	cont, err := v.container()
	if err != nil {
		return nil, mapStoreErr(err)
	}
	df, err := cont.Lookup(prefixData + v.fid.String())
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return nil, vnode.ENOSTOR
		}
		return nil, err
	}
	return df, nil
}

func (v *pvnode) readAll() ([]byte, error) {
	if v.l.IsQuarantined(v.fid) {
		return nil, vnode.ENOSTOR
	}
	v.l.mu.Lock() // to locate the file (the caches), not to read it
	df, err := v.dataFile()
	v.l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return vnode.ReadFile(df)
}

func (v *pvnode) ReadAt(p []byte, off int64) (int, error) {
	if v.kind.IsDir() {
		return 0, vnode.EISDIR
	}
	// A quarantined replica's bytes are untrusted: answer "not stored" so
	// the logical layer fails over to a replica that can serve the version.
	if v.l.IsQuarantined(v.fid) {
		return 0, vnode.ENOSTOR
	}
	v.l.mu.Lock() // to locate the file (the caches), not for the copy
	df, err := v.dataFile()
	v.l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := df.ReadAt(p, off)
	if errors.Is(err, io.EOF) {
		return n, io.EOF
	}
	return n, err
}

// updateFileLocked is every local mutation of a stored file — an update this
// replica originated, so its version vector is bumped (§3.1) — in the order
// an install uses: the aux's seal is written, under the bumped vector, over the
// image the file is about to hold (nextManifestLocked: its bytes cut or
// zero-extended to the size in [lo, hi] nearest their own, p laid over them at
// off); apply then overwrites the data file df in place; the aux header commits
// last.  Between the first step and the last the seal is stale — unverifiable,
// the scrubber reseals — so at no crash offset does a seal vouch for bytes it
// does not cover.
func (v *pvnode) updateFileLocked(df vnode.Vnode, lo, hi uint64, p []byte, off uint64, apply func() error) error {
	cont, err := v.container()
	if err != nil {
		return mapStoreErr(err)
	}
	af, aux, seal, err := openAuxFile(cont, prefixAux+v.fid.String())
	if err != nil {
		return err
	}
	da, err := df.Getattr()
	if err != nil {
		return err
	}
	// Only a current seal can vouch for the bytes kept.
	m, err := v.nextManifestLocked(df, seal, da.Size, min(max(da.Size, lo), hi), p, off)
	if err != nil {
		return err
	}
	aux.VV = v.l.bumpVV(aux.VV)
	if err := resealInPlace(af, seal, aux.VV, m); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	return writeAuxVnode(af, &aux)
}

// nextManifestLocked summarises the image df, old bytes long, is about to
// hold: those bytes cut or zero-extended to size, with p laid over them at
// off.  Only the blocks the update changes are read and hashed.  Under seal, the
// file's current seal (nil when it has none that is current), every other
// block keeps its sealed address — never a hash of what it reads back as now,
// which would launder rot at rest under a newer vector — and the stored bytes a
// changed block keeps must first hash to theirs: what fails is quarantined and
// the update refused like any write to a quarantined replica.  Without a seal
// every stored block is read and hashed on trust, as the scrubber's reseal
// does.  A block wholly past the old end is zeros and is never materialised.
func (v *pvnode) nextManifestLocked(df vnode.Vnode, seal *sidecar, old, size uint64, p []byte, off uint64) (*BlockManifest, error) {
	failsSeal := func() (*BlockManifest, error) {
		v.l.quarantineLocked(v.dirPath, v.fid, seal.Sealed)
		return nil, vnode.ENOSTOR
	}
	if seal != nil && seal.Length != old {
		return failsSeal()
	}
	m := &BlockManifest{Length: size, Blocks: make([]BlockAddr, blockCount(size))}
	var buf []byte
	for i := range m.Blocks {
		s := uint64(i) * ChecksumBlockSize
		// The block runs [s, e); its stored bytes, if any, [s, stored); p
		// covers [from, to) of it, if anything.
		e, stored := min(s+ChecksumBlockSize, size), min(s+ChecksumBlockSize, old)
		from, to := max(s, off), min(e, off+uint64(len(p)))
		switch {
		case from >= to && stored == e && seal != nil:
			m.Blocks[i] = seal.Blocks[i]
		case from >= to && stored <= s && e-s == ChecksumBlockSize:
			m.Blocks[i] = zeroBlockAddr
		case from == s && to == e:
			m.Blocks[i] = HashBlock(p[s-off : e-off])
		default:
			if buf == nil {
				buf = make([]byte, ChecksumBlockSize)
			}
			clear(buf)
			if stored > s {
				kept := buf[:stored-s]
				if _, err := df.ReadAt(kept, int64(s)); err != nil && !errors.Is(err, io.EOF) {
					return nil, err
				}
				if seal != nil && HashBlock(kept) != seal.Blocks[i] {
					return failsSeal()
				}
			}
			if from < to {
				copy(buf[from-s:], p[from-off:to-off])
			}
			m.Blocks[i] = HashBlock(buf[:e-s])
		}
	}
	return m, nil
}

func (v *pvnode) WriteAt(p []byte, off int64) (int, error) {
	if v.kind.IsDir() {
		return 0, vnode.EISDIR
	}
	if off < 0 {
		return 0, vnode.EINVAL
	}
	if uint64(off)+uint64(len(p)) > maxFileSize {
		return 0, vnode.ENOSPC
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	// Writing over quarantined bytes would seal damage into a fresh version
	// (a partial write reads back what it did not cover); fail over instead.
	if v.l.isQuarantinedLocked(v.fid) {
		return 0, vnode.ENOSTOR
	}
	df, err := v.dataFile()
	if err != nil {
		return 0, err
	}
	n := 0
	err = v.updateFileLocked(df, uint64(off)+uint64(len(p)), math.MaxUint64, p, uint64(off), func() (err error) {
		n, err = df.WriteAt(p, off)
		return err
	})
	return n, err
}

func (v *pvnode) Truncate(size uint64) error {
	if v.kind.IsDir() {
		return vnode.EISDIR
	}
	if size > maxFileSize {
		return vnode.ENOSPC
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	if v.l.isQuarantinedLocked(v.fid) {
		return vnode.ENOSTOR
	}
	df, err := v.dataFile()
	if err != nil {
		return err
	}
	return v.updateFileLocked(df, size, size, nil, 0, func() error { return df.Truncate(size) })
}

func (v *pvnode) Fsync() error { return v.l.store.Sync() }

func (v *pvnode) Getattr() (vnode.Attr, error) {
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	return v.getattrLocked()
}

func (v *pvnode) getattrLocked() (vnode.Attr, error) {
	if v.kind.IsDir() {
		cont, d, err := v.dirStateLocked()
		if err != nil {
			return vnode.Attr{}, err
		}
		aux, err := d.attrOf(cont)
		if err != nil {
			return vnode.Attr{}, err
		}
		a := vnode.Attr{
			Type:   vnode.VDir,
			Nlink:  uint32(2 + d.live),
			Size:   uint64(len(d.entries)),
			Mtime:  aux.VV.Total(),
			FileID: v.fid.String(),
		}
		if aux.Type == KGraft {
			a.GraftVol = aux.GraftVol.String()
		}
		return a, nil
	}
	cont, err := v.container()
	if err != nil {
		return vnode.Attr{}, mapStoreErr(err)
	}
	aux, _, err := v.l.fileAuxLocked(cont, prefixAux+v.fid.String(), false)
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return vnode.Attr{}, vnode.ENOSTOR
		}
		return vnode.Attr{}, err
	}
	df, err := cont.Lookup(prefixData + v.fid.String())
	if err != nil {
		return vnode.Attr{}, err
	}
	da, err := df.Getattr()
	if err != nil {
		return vnode.Attr{}, err
	}
	t := vnode.VReg
	if aux.Type == KSymlink {
		t = vnode.VLnk
	}
	return vnode.Attr{
		Type:   t,
		Mode:   da.Mode,
		Nlink:  aux.Nlink,
		Size:   da.Size,
		Mtime:  aux.VV.Total(),
		Ctime:  da.Ctime,
		FileID: v.fid.String(),
	}, nil
}

func (v *pvnode) Setattr(sa vnode.SetAttr) error {
	if sa.Size != nil {
		if err := v.Truncate(*sa.Size); err != nil {
			return err
		}
	}
	if sa.Mode != nil && !v.kind.IsDir() {
		v.l.mu.Lock()
		defer v.l.mu.Unlock()
		// The update reseals the file from stored data; on a quarantined
		// replica that would launder known-bad bytes.
		if v.l.isQuarantinedLocked(v.fid) {
			return vnode.ENOSTOR
		}
		df, err := v.dataFile()
		if err != nil {
			return err
		}
		return v.updateFileLocked(df, 0, math.MaxUint64, nil, 0,
			func() error { return df.Setattr(vnode.SetAttr{Mode: sa.Mode}) })
	}
	return nil
}

func (v *pvnode) Access(uint16) error { return nil }

func (v *pvnode) Remove(name string) error { return v.removeEntry(name, false) }

func (v *pvnode) Rmdir(name string) error { return v.removeEntry(name, true) }

// removeEntry tombstones the entry rendered as name — a directory's when
// wantDir, a file's otherwise — in one directory commit, then settles the
// storage of a file that may have lost its last name.  A removed directory's
// container stays, named by the tombstone, until the tombstone is collected.
func (v *pvnode) removeEntry(name string, wantDir bool) error {
	if !v.kind.IsDir() {
		return vnode.ENOTDIR
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	cont, d, err := v.dirStateLocked()
	if err != nil {
		return err
	}
	i := d.find(name)
	if i < 0 {
		return vnode.ENOENT
	}
	e := d.entries[i]
	if e.Kind.IsDir() != wantDir {
		if wantDir {
			return vnode.ENOTDIR
		}
		return vnode.EISDIR
	}
	// A directory must be empty (no live entries) if we store it; an unstored
	// one is deletable blindly — optimism, reconciliation cleans up.
	if wantDir {
		if sub, err := cont.Lookup(prefixDir + e.Child.String()); err == nil {
			subDir, err := v.l.dirLocked(sub)
			if err != nil {
				return err
			}
			if subDir.live > 0 {
				return vnode.ENOTEMPTY
			}
		}
	}
	e.Deleted = true
	if d, err = v.l.commitDirLocked(cont, d, []Entry{e}, v.l.bumpVV); err != nil || wantDir {
		return err
	}
	return v.l.settleChildLocked(cont, d.entries, e.Child)
}

// Link adds another name for target within this same directory — Ficus
// files live in a DAG and may bear several names (§2.5).  Cross-directory
// hard links are not supported by this physical layer (EXDEV); the logical
// layer surfaces that restriction.
func (v *pvnode) Link(name string, target vnode.Vnode) error {
	if !v.kind.IsDir() {
		return vnode.ENOTDIR
	}
	t, ok := target.(*pvnode)
	if !ok || t.l != v.l {
		return vnode.EXDEV
	}
	if t.kind.IsDir() {
		return vnode.EPERM
	}
	if err := checkName(name); err != nil {
		return err
	}
	if len(v.selfPath()) != len(t.dirPath) || !samePath(v.selfPath(), t.dirPath) {
		return vnode.EXDEV
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	cont, d, err := v.dirStateLocked()
	if err != nil {
		return err
	}
	if d.find(name) >= 0 {
		return vnode.EEXIST
	}
	if countLiveRefs(d.entries, t.fid) == 0 {
		return vnode.ENOENT // the target lost its last name since it was looked up
	}
	eid, err := v.l.nextIDLocked()
	if err != nil {
		return err
	}
	// The entry first, then the link count recounted from it.
	d, err = v.l.commitDirLocked(cont, d, []Entry{{EID: eid, Name: name, Child: t.fid, Kind: t.kind}}, v.l.bumpVV)
	if err != nil {
		return err
	}
	return v.l.settleChildLocked(cont, d.entries, t.fid)
}

func samePath(a, b []ids.FileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Rename commits the destination directory, then — across directories — the
// source.  The destination's changes (a replaced name tombstoned, the new
// entry in, and in one directory the old name tombstoned too) land in ONE
// append, so within a directory the rename, over an existing name or not, is
// atomic.  Across directories a crash between the two commits leaves
// both names, never neither, and storage follows the entries in an order
// under which Recover's reclaim of unnamed storage cannot take the only copy:
// a file's members are hard-linked into the destination (aux last: until it
// lands the new copy reads as never finished) before the destination names
// them and unlinked from the source only after the source stops naming them;
// a directory's container moves, by its one store rename, between the commits
// — named by a live entry on both sides of the move.
func (v *pvnode) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	if !v.kind.IsDir() {
		return vnode.ENOTDIR
	}
	d, ok := dstDir.(*pvnode)
	if !ok || d.l != v.l || !d.kind.IsDir() {
		return vnode.EXDEV
	}
	if err := checkName(newName); err != nil {
		return err
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	srcCont, src, err := v.dirStateLocked()
	if err != nil {
		return err
	}
	si := src.find(oldName)
	if si < 0 {
		return vnode.ENOENT
	}
	e := src.entries[si]
	sameDir := samePath(v.selfPath(), d.selfPath())
	if sameDir && oldName == newName {
		return nil
	}
	dstCont, dst := srcCont, src
	if !sameDir {
		dstCont, dst, err = d.dirStateLocked()
		if err != nil {
			return err
		}
	}
	replaced := dst.find(newName)
	if replaced >= 0 && (dst.entries[replaced].Kind.IsDir() || e.Kind.IsDir()) {
		return vnode.EEXIST
	}
	eid, err := v.l.nextIDLocked()
	if err != nil {
		return err
	}
	member := e.Child.String()
	if !sameDir && !e.Kind.IsDir() {
		for _, p := range []string{prefixData, prefixAux} {
			m, err := srcCont.Lookup(p + member)
			if vnode.AsErrno(err) == vnode.ENOENT {
				continue // not stored here
			} else if err != nil {
				return err
			}
			// EEXIST: the destination holds its own copy already (the file
			// has a name there); it keeps it.
			if err := dstCont.Link(p+member, m); err != nil && vnode.AsErrno(err) != vnode.EEXIST {
				return err
			}
		}
	}
	old := e
	old.Deleted = true
	var changed []Entry
	var gone Entry
	if replaced >= 0 {
		gone = dst.entries[replaced]
		gone.Deleted = true
		changed = append(changed, gone)
	}
	if sameDir {
		changed = append(changed, old)
	}
	changed = append(changed, Entry{EID: eid, Name: newName, Child: e.Child, Kind: e.Kind, Value: e.Value})
	if dst, err = v.l.commitDirLocked(dstCont, dst, changed, v.l.bumpVV); err != nil {
		return err
	}
	if replaced >= 0 {
		if err := v.l.settleChildLocked(dstCont, dst.entries, gone.Child); err != nil {
			return err
		}
	}
	if sameDir {
		return nil
	}
	if e.Kind.IsDir() {
		v.l.conts.Flush() // every fid path through the container changes
		if err := srcCont.Rename(prefixDir+member, dstCont, prefixDir+member); err != nil && vnode.AsErrno(err) != vnode.ENOENT {
			return err
		}
	}
	if src, err = v.l.commitDirLocked(srcCont, src, []Entry{old}, v.l.bumpVV); err != nil || e.Kind.IsDir() {
		return err
	}
	// A source that still names the file keeps its copy, so the destination
	// takes a private one; either way each side recounts its own names.
	if countLiveRefs(src.entries, e.Child) > 0 {
		if err := v.l.unshareLocked(dstCont, e.Child); err != nil {
			return err
		}
	}
	if err := v.l.settleChildLocked(srcCont, src.entries, e.Child); err != nil {
		return err
	}
	return v.l.settleChildLocked(dstCont, dst.entries, e.Child)
}

func (v *pvnode) Readdir() ([]vnode.Dirent, error) {
	if !v.kind.IsDir() {
		return nil, vnode.ENOTDIR
	}
	v.l.mu.Lock()
	defer v.l.mu.Unlock()
	_, d, err := v.dirStateLocked()
	if err != nil {
		return nil, err
	}
	out := make([]vnode.Dirent, 0, d.live)
	for _, e := range d.entries {
		if !e.Live() {
			continue
		}
		t := vnode.VReg
		switch e.Kind {
		case KDir, KGraft:
			t = vnode.VDir
		case KSymlink:
			t = vnode.VLnk
		}
		out = append(out, vnode.Dirent{
			Name:   d.nameOf(e),
			FileID: e.Child.String(),
			Type:   t,
			Value:  e.Value,
		})
	}
	return out, nil
}
