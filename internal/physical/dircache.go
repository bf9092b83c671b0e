package physical

import (
	"fmt"
	"hash/crc32"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
)

// Bounds of the layer's three caches of what the store says (DESIGN.md §16):
// conts, fid path → container; dirs, container → decoded directory; and auxs,
// a file's aux member → its decoded attributes.  And the bound of its vnode
// table, which holds no store state: a node → its one vnode (pvnode.go).
const contCacheSize, dirCacheSize, auxCacheSize, vnodeTableSize = 4096, 1024, 4096, 4096

// auxEntry is a file's aux as decoded — its header, and once asked for its
// seal (nil when it has no current one) — with the stamp of the store file it
// was read from.  The store ticks Mtime or Ctime on every change of a file and
// never reuses a stamp, so a stamp that still matches vouches for the bytes.
type auxEntry struct {
	aux                Aux
	seal               *sidecar
	sealRead           bool
	mtime, ctime, size uint64
}

// dirImage is one directory decoded.  The cache lends it: a reader, under
// l.mu, must not change it, and a caller about to change the directory hands
// commitDirLocked — the directory's one writer, and the image's — the entries
// it changed.
type dirImage struct {
	entries []Entry
	least   map[string]ids.FileID // name → the least entry id among its live entries
	byName  map[string]int        // nameOf(entries[i]) → i+1 (a miss reads 0); of two spelt alike, the first
	live    int                   // how many entries are live
	attr    *Aux                  // the directory's own attributes; nil until asked for (attrOf)
	end     int                   // the contents file's length: where the next record goes
	snap    int                   // the length of the entries' snapshot (commitDirLocked compacts past 2×)
	sum     uint32                // of the encoded entries as cached; FICUS_INVARIANTS only
}

// newDirImage indexes entries, which it keeps, of a contents file end bytes long.
func newDirImage(entries []Entry, attr *Aux, end int) *dirImage {
	d := &dirImage{entries: entries, attr: attr, end: end, snap: snapshotLen(entries),
		least: make(map[string]ids.FileID, len(entries)), byName: make(map[string]int, len(entries))}
	for _, e := range entries {
		if id, ok := d.least[e.Name]; e.Live() && (!ok || eidLess(e.EID, id)) {
			d.least[e.Name] = e.EID
		}
	}
	for i, e := range entries {
		if !e.Live() {
			continue
		}
		d.live++
		if name := d.nameOf(e); d.find(name) < 0 {
			d.byName[name] = i + 1
		}
	}
	if invariant.Enabled() {
		d.sum = crc32.ChecksumIEEE(encodeEntries(entries))
	}
	return d
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

// attrOf returns the attributes of the directory in container cont, read on
// first use: a lookup does not need them, and the paper's cold open (§6) has
// four I/Os to spend, not five.
func (d *dirImage) attrOf(cont vnode.Vnode) (*Aux, error) {
	if d.attr != nil {
		return d.attr, nil
	}
	a, err := readAuxFile(cont, dirAttrName)
	if err == nil {
		d.attr = &a
	}
	return d.attr, err
}

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
		d = newDirImage(entries, nil, size)
		l.dirs.Put(key, d)
	} else if invariant.Enabled() && crc32.ChecksumIEEE(encodeEntries(d.entries)) != d.sum {
		// Never checked against a re-read: chaos-scrub garbles reads on purpose.
		invariant.Failf("physical: a borrower changed the cached entries of container %s", key)
	}
	return d, nil
}

// fileAuxLocked reads the aux member name of container cont through the aux
// cache: its header and, with seal, its current seal (sidecar.go).  The key is
// the member's store handle, its inode — so an install by rename, a link or
// unlink and a reused inode all change the key or the stamp, and no writer
// needs to drop an entry; the caller must not change the results, whose vector
// and blocks are lent.  A hit still asks the store for the member and its
// stamp, both answered from the store's caches; it skips the block read and the
// decode.  Without seal only the header's block is read.
func (l *Layer) fileAuxLocked(cont vnode.Vnode, name string, seal bool) (Aux, *sidecar, error) {
	f, err := cont.Lookup(name)
	if err != nil {
		return Aux{}, nil, err
	}
	st, err := f.Getattr()
	if err != nil {
		return Aux{}, nil, err
	}
	key := f.Handle()
	if e, ok := l.auxs.Get(key); ok && e.mtime == st.Mtime && e.ctime == st.Ctime && e.size == st.Size && (e.sealRead || !seal) {
		return e.aux, e.seal, nil
	}
	a, sc, err := loadAux(f, st.Size, seal)
	if err == nil {
		l.auxs.Put(key, auxEntry{aux: a, seal: sc, sealRead: seal, mtime: st.Mtime, ctime: st.Ctime, size: st.Size})
	}
	return a, sc, err
}

// fileCopy is a stored file copy as copyLocked finds it: its aux and seal, lent
// by the aux cache, and its data member.
type fileCopy struct {
	aux  Aux
	seal *sidecar
	df   vnode.Vnode
}

// copyLocked finds the copy of the file whose members are m stored in
// container cont: its aux through the aux cache (with seal, its current seal
// too), then its data member.  An aux that is not there is the store's ENOENT,
// passed through so that a caller can try the fid as a child directory; a data
// member that is not there is ErrNotStored, whatever the aux says.
func (l *Layer) copyLocked(cont vnode.Vnode, m members, seal bool) (fileCopy, error) {
	aux, sc, err := l.fileAuxLocked(cont, m.stored, seal)
	if err != nil {
		return fileCopy{}, err
	}
	df, err := cont.Lookup(m.data)
	if err != nil {
		return fileCopy{}, mapNotStored(err)
	}
	return fileCopy{aux: aux, seal: sc, df: df}, nil
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
