package physical

import (
	"fmt"
	"hash/crc32"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
	"repro/internal/wire"
)

// Bounds of the layer's three caches of what the store says (DESIGN.md §16):
// conts, fid path → container; dirs, container → decoded directory; and auxs,
// a file's aux member → its decoded attributes.  And the bound of its vnode
// table, which holds no store state: a node → its one vnode (pvnode.go).
const contCacheSize, dirCacheSize, auxCacheSize, vnodeTableSize = 4096, 1024, 4096, 4096

// auxEntry is an aux member as decoded — its header and its current seal (nil
// when it has none) — with the stamp of the store file it was read from or
// written to.  The store ticks Mtime or Ctime on every change of a file and
// never reuses a stamp, so a stamp that still matches vouches for the bytes.
type auxEntry struct {
	aux                Aux
	seal               *sidecar
	mtime, ctime, size uint64
	sum                uint32 // of the encoded header and seal as recorded; FICUS_INVARIANTS only, 0 if not taken
}

// auxSum is the CRC-32 of header a and seal sc encoded.
func auxSum(a *Aux, sc *sidecar) uint32 {
	sum := crc32.ChecksumIEEE(a.encode())
	if sc != nil {
		sum = crc32.Update(sum, crc32.IEEETable, encodeSidecar(sc.Sealed, &sc.BlockManifest))
	}
	return sum
}

// checkLent fails an armed invariant when entry e, lent for store file key, no
// longer encodes as it did when it was recorded: a borrower changed it — a
// writer that moved the lent vector without cloning it, say.  Never checked
// against a re-read: chaos-scrub garbles reads on purpose.
func (e *auxEntry) checkLent(key string) {
	if invariant.Enabled() && e.sum != 0 && auxSum(&e.aux, e.seal) != e.sum {
		invariant.Failf("physical: a borrower changed the cached aux of store file %s", key)
	}
}

// dirImage is one directory decoded.  The cache lends it: a reader, under
// l.mu, only looks, and a caller about to change the directory hands
// commitDirLocked — the directory's one writer, and the image's — the entries
// it changed; that writer changes the image in place once its writes land.
type dirImage struct {
	entries []Entry
	least   map[string]ids.FileID // name → the least entry id among its live entries
	byName  map[string]int        // nameOf(entries[i]) → i+1 (a miss reads 0); of two spelt alike, the first
	live    int                   // how many entries are live
	end     int                   // the contents file's length: where the next record goes
	snap    int                   // the length of the entries' snapshot (commitDirLocked compacts past 2×)
	sum     uint32                // of the encoded entries as cached; FICUS_INVARIANTS only
}

// newDirImage indexes entries, which it keeps, of a contents file end bytes
// long: the cache's miss path.
func newDirImage(entries []Entry, end int) *dirImage {
	d := &dirImage{entries: entries, end: end,
		least: make(map[string]ids.FileID, len(entries)), byName: make(map[string]int, len(entries))}
	d.index()
	return d
}

// index derives the rest of d from its entries — least, byName, live, snap
// and, armed, the sum — refilling the maps d already holds.
func (d *dirImage) index() {
	clear(d.least)
	clear(d.byName)
	d.live = 0
	for _, e := range d.entries {
		if id, ok := d.least[e.Name]; e.Live() && (!ok || eidLess(e.EID, id)) {
			d.least[e.Name] = e.EID
		}
	}
	for i, e := range d.entries {
		if !e.Live() {
			continue
		}
		d.live++
		if name := d.nameOf(e); d.find(name) < 0 {
			d.byName[name] = i + 1
		}
	}
	d.snap = snapshotLen(d.entries)
	if invariant.Enabled() {
		d.sum = crc32.ChecksumIEEE(encodeEntries(d.entries))
	}
}

// checkLent fails an armed invariant when the entries of d, lent for container
// key, no longer encode as they did when they were recorded: a borrower
// changed them.  Never checked against a re-read: chaos-scrub garbles reads
// on purpose.
func (d *dirImage) checkLent(key string) {
	if invariant.Enabled() && crc32.ChecksumIEEE(encodeEntries(d.entries)) != d.sum {
		invariant.Failf("physical: a borrower changed the cached entries of container %s", key)
	}
}

// nameOf returns the client-visible name of live entry e.  Live entries sharing
// a name (concurrent partitioned insertions: a directory update conflict) are
// "automatically repaired": all but the least entry id show a #issuer.seq suffix.
func (d *dirImage) nameOf(e Entry) string {
	if d.least[e.Name] == e.EID {
		return e.Name
	}
	return fmt.Sprintf("%s#%d.%d", e.Name, e.EID.Issuer, e.EID.Seq)
}

// find returns the index of the live entry shown as name, or -1.
func (d *dirImage) find(name string) int { return d.byName[name] - 1 }

// dirLocked lends the image of the directory in container cont.  The key is
// the container's store handle: a moved container keeps it, and one made on a
// removed one's inode starts by dropping it (newContainerLocked).
func (l *Layer) dirLocked(cont vnode.Vnode) (*dirImage, error) {
	key := cont.Handle()
	d, ok := l.dirs.Get(key)
	if !ok {
		entries, size, err := l.readDirFileLocked(cont)
		if err != nil {
			return nil, err
		}
		d = newDirImage(entries, size)
		l.dirs.Put(key, d)
	} else {
		d.checkLent(key)
	}
	return d, nil
}

// fileAuxLocked is the one runtime reader of an aux member: a file's A<fid> or
// a directory's attr, name in container cont.  It returns the member's store
// vnode, for an in-place rewrite (rewriteAuxLocked), and its header and seal
// through the aux cache, lent: the caller must not change them, though it may
// bump the vector, which builds a new one.  The key is the member's store
// handle, its inode — so an install by rename, a link or unlink and a reused
// inode all change the key or the stamp, and no writer needs to drop an entry.
// A hit still asks the store for the member and its stamp, both answered from
// the store's caches; it skips the block read and the decode.
func (l *Layer) fileAuxLocked(cont vnode.Vnode, name string) (vnode.Vnode, auxEntry, error) {
	f, err := cont.Lookup(name)
	if err != nil {
		return nil, auxEntry{}, err
	}
	st, err := f.Getattr()
	if err != nil {
		return nil, auxEntry{}, err
	}
	key := f.Handle()
	if e, ok := l.auxs.Get(key); ok && e.mtime == st.Mtime && e.ctime == st.Ctime && e.size == st.Size {
		e.checkLent(key)
		return f, e, nil
	}
	a, sc, err := loadAux(f, st.Size)
	if err != nil {
		return nil, auxEntry{}, err
	}
	return f, l.recordAuxLocked(key, a, sc, st), nil
}

// recordAuxLocked caches header a and seal sc as what store file key holds
// while its stamp is st's.
func (l *Layer) recordAuxLocked(key string, a Aux, sc *sidecar, st vnode.Attr) auxEntry {
	e := auxEntry{aux: a, seal: sc, mtime: st.Mtime, ctime: st.Ctime, size: st.Size}
	if invariant.Enabled() {
		e.sum = auxSum(&a, sc)
	}
	l.auxs.Put(key, e)
	return e
}

// rewriteAuxLocked is the one in-place writer of an aux member: af, whose
// entry cur fileAuxLocked lent.  With m, it first reseals the tail under aux's
// vector (resealInPlace), then runs apply, if any — a local update's change of
// the data, which the seal now covers — and overwrites the header with aux
// last, so at no crash offset does a seal vouch for bytes it does not cover.
// Without m the seal stays, current only if it is sealed under aux's vector.
// Once every write has landed it records what it wrote under the stamp it
// reads back: the same stamp check validates the record, so a writer that did
// not record would cost a miss, never a wrong answer.  aux's vector is the
// cache's from then on.
func (l *Layer) rewriteAuxLocked(af vnode.Vnode, cur auxEntry, aux *Aux, m *BlockManifest, apply func() error) error {
	key := af.Handle()
	cur.checkLent(key)
	e := auxEntry{aux: *aux, seal: cur.seal}
	if m != nil {
		if err := resealInPlace(af, cur.seal, aux.VV, m); err != nil {
			return err
		}
		e.seal = &sidecar{Sealed: e.aux.VV, BlockManifest: *m}
	} else if e.seal != nil && !e.seal.Sealed.Equal(aux.VV) {
		e.seal = nil
	}
	if apply != nil {
		if err := apply(); err != nil {
			return err
		}
	}
	hdr, err := appendAuxImage(wire.GetBuf(auxFileSize), aux, nil)
	if err != nil {
		return err
	}
	_, err = af.WriteAt(hdr, 0)
	wire.PutBuf(hdr)
	if err != nil {
		return err
	}
	if st, err := af.Getattr(); err == nil {
		l.recordAuxLocked(key, e.aux, e.seal, st)
	}
	return nil
}

// fileCopy is a stored file copy as copyLocked finds it: its aux member and
// that member's entry, lent by the aux cache, and its data member.
type fileCopy struct {
	af vnode.Vnode
	auxEntry
	df vnode.Vnode
}

// copyLocked finds the copy of the file whose members are m stored in
// container cont: its aux through the aux cache, then its data member.  An aux
// that is not there is the store's ENOENT, passed through so that a caller can
// try the fid as a child directory; a data member that is not there is
// ErrNotStored, whatever the aux says.
func (l *Layer) copyLocked(cont vnode.Vnode, m members) (fileCopy, error) {
	af, e, err := l.fileAuxLocked(cont, m.stored)
	if err != nil {
		return fileCopy{}, err
	}
	df, err := cont.Lookup(m.data)
	if err != nil {
		return fileCopy{}, mapNotStored(err)
	}
	return fileCopy{af: af, auxEntry: e, df: df}, nil
}

// FlushCaches empties the layer's caches; the next calls read the store.  The
// vnode table stays: it holds no store state, only which vnode stands for which
// node.
func (l *Layer) FlushCaches() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conts.Flush()
	l.dirs.Flush()
	l.auxs.Flush()
}
