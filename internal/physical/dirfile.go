package physical

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
	"repro/internal/wire"
)

// Entry is one Ficus directory entry.  Beyond the Unix <name, file> pair it
// carries the metadata the directory reconciliation algorithm needs (paper
// §3.3): a globally unique entry id identifying this particular insertion
// (a re-insertion after delete gets a fresh id), and a deletion mark kept
// as a tombstone so deletes propagate instead of resurrecting.
type Entry struct {
	// EID uniquely identifies this insertion; issued by the inserting
	// replica's sequencer, so concurrent insertions never collide.
	EID ids.FileID
	// Name is the client-visible name (before conflict disambiguation).
	Name string
	// Child is the file the entry names.
	Child ids.FileID
	// Kind is the child's Ficus type.
	Kind Kind
	// Deleted marks a tombstone.
	Deleted bool
	// Value is an auxiliary payload used when a directory doubles as a
	// replicated table: graft points store a volume replica's storage-site
	// address here (paper §4.3 "conveniently maintained as directory
	// entries").
	Value string
}

// Live reports whether the entry is visible (not a tombstone).
func (e Entry) Live() bool { return !e.Deleted }

// The directory contents file is a record journal (DESIGN.md §10.3): magic
// "FDIR", a version byte, then per commit one record — body length u32 | CRC-32
// of the body u32 | the changed entries, each entry id | child id | kind u8 |
// tombstone bool | name, value (u16 length each) — that upserts them by id.  The
// directory is the fold, in entry-id order; replay is strict, so a bad record
// fails the file, which wedges rather than lies (§11).  A snapshot is the
// header and one record of every entry.
const dirVersion = 1

var dirMagic = []byte("FDIR")

// appendRecord appends to dst the record of one commit that changed entries;
// none changed, nothing.
func appendRecord(dst []byte, entries []Entry) []byte {
	if len(entries) == 0 {
		return dst
	}
	at := len(dst)
	dst = append(dst, make([]byte, 8)...)
	for _, e := range entries {
		dst = wire.AppendFID(dst, e.EID)
		dst = wire.AppendFID(dst, e.Child)
		dst = wire.AppendU8(dst, byte(e.Kind))
		dst = wire.AppendBool(dst, e.Deleted)
		dst = append(wire.AppendU16(dst, uint16(len(e.Name))), e.Name...)
		dst = append(wire.AppendU16(dst, uint16(len(e.Value))), e.Value...)
	}
	body := dst[at+8:]
	binary.BigEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(body))
	return dst
}

// encodeEntries renders the snapshot of a directory whose entries are in
// entry-id order.
func encodeEntries(entries []Entry) []byte {
	return appendRecord(wire.AppendU8(append([]byte(nil), dirMagic...), dirVersion), entries)
}

// snapshotLen is len(encodeEntries(entries)), counted: the header, a record's 8
// bytes, and per entry 30 (two ids, kind, tombstone, two lengths) and its strings.
func snapshotLen(entries []Entry) int {
	n := len(dirMagic) + 1 + 8*min(len(entries), 1)
	for _, e := range entries {
		n += 30 + len(e.Name) + len(e.Value)
	}
	return n
}

// replayEntries folds a contents file into its entries.
func replayEntries(p []byte) ([]Entry, error) {
	d := wire.NewDecoder(p)
	if !bytes.Equal(d.Take(len(dirMagic)), dirMagic) {
		d.Fail("no directory journal header")
	}
	d.Version(dirVersion)
	var entries []Entry
	for d.Err() == nil && d.Len() > 0 {
		n, sum := d.U32(), d.U32()
		body := d.Take(int(n))
		if d.Err() == nil && (n == 0 || crc32.ChecksumIEEE(body) != sum) {
			d.Fail("a directory record is empty or fails its checksum")
		}
		for b := wire.NewDecoder(body); d.Err() == nil && b.Len() > 0; {
			e := Entry{EID: b.FID(), Child: b.FID(), Kind: Kind(b.U8()), Deleted: b.Bool()}
			e.Name = string(b.Take(int(b.U16())))
			e.Value = string(b.Take(int(b.U16())))
			if b.Err() != nil {
				d.Fail("directory record: %v", b.Err())
			}
			entries = upsertEntry(entries, e)
		}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("physical: directory file: %w", d.Err())
	}
	return entries, nil
}

// upsertEntry puts e into entries, which are in entry-id order, in place of the
// entry with its id or at its place in the order.
func upsertEntry(entries []Entry, e Entry) []Entry {
	i, found := slices.BinarySearchFunc(entries, e.EID, func(x Entry, id ids.FileID) int { return cmpEID(x.EID, id) })
	if found {
		entries[i] = e
		return entries
	}
	return slices.Insert(entries, i, e)
}

// readDirFileLocked replays the contents file in container cont, size bytes
// long: for dirLocked on a miss, and for the verifiers — Check, Recover, the
// scrubber — whose word must be the store's.
func (l *Layer) readDirFileLocked(cont vnode.Vnode) (entries []Entry, size int, err error) {
	f, err := cont.Lookup(dirFileName)
	if err != nil {
		return nil, 0, err
	}
	data, err := vnode.ReadFile(f)
	if err != nil {
		return nil, 0, err
	}
	entries, err = replayEntries(data)
	return entries, len(data), err
}

// commitDirLocked is how a directory changes: one record of changed — the
// entries an operation inserted or altered — is appended in one write at the
// image's end, the operation's commit point.  Then advance, unless nil, moves
// the directory's version vector in attr (bumpVV for a local mutation, a merge
// for reconciliation).  A crash between the two leaves the new entries under
// the old vector, which costs the next reconciliation a look at a directory it
// would otherwise have skipped.
func (l *Layer) commitDirLocked(cont vnode.Vnode, d *dirImage, changed []Entry, advance func(vv.Vector) vv.Vector) (*dirImage, error) {
	entries := slices.Grow(slices.Clip(d.entries), len(changed))
	for _, e := range changed {
		entries = upsertEntry(entries, e)
	}
	rec := appendRecord(nil, changed)
	// Past twice the directory's snapshot and one device block, it compacts.
	return l.writeDirLocked(cont, d, entries, rec, d.end+len(rec) > max(2*d.snap, 4096), advance)
}

// writeDirLocked moves the directory imaged by d to entries by appending rec,
// or, when compact, by atomicReplace of their snapshot (DropTombstones' way: no
// record drops an entry).  d is dropped first and its successor cached only once
// every write is down, so no failure leaves a stale cache.
func (l *Layer) writeDirLocked(cont vnode.Vnode, d *dirImage, entries []Entry, rec []byte, compact bool, advance func(vv.Vector) vv.Vector) (*dirImage, error) {
	key := cont.Handle()
	l.dirs.Drop(key)
	end := d.end + len(rec)
	if compact {
		img := encodeEntries(entries)
		if err := atomicReplace(cont, dirFileName, img); err != nil {
			return nil, err
		}
		end = len(img)
	} else if len(rec) > 0 {
		if f, err := cont.Lookup(dirFileName); err != nil {
			return nil, err
		} else if _, err := f.WriteAt(rec, int64(d.end)); err != nil {
			return nil, err
		}
	}
	attr := d.attr
	if advance != nil {
		af, aux, _, err := openAuxFile(cont, dirAttrName)
		if err != nil {
			return nil, err
		}
		aux.VV = advance(aux.VV)
		if err := writeAuxVnode(af, &aux); err != nil {
			return nil, err
		}
		attr = &aux
	}
	next := newDirImage(entries, attr, end)
	l.dirs.Put(key, next)
	return next, nil
}

// bumpVV advances v by one update this replica originated (§3.1).
func (l *Layer) bumpVV(v vv.Vector) vv.Vector {
	if v == nil {
		v = vv.New()
	}
	return v.Bump(l.replica)
}

// newContainerLocked creates directory fid's container under parent: the UFS
// directory, an empty contents file, then aux as its attributes — last, so a
// container without attr never finished materialising and Recover removes it
// (so dir is written in place).  A reused inode's cached image goes first.
func (l *Layer) newContainerLocked(parent vnode.Vnode, fid ids.FileID, aux *Aux) error {
	sub, err := parent.Mkdir(prefixDir + fid.String())
	if err != nil {
		return err
	}
	l.dirs.Drop(sub.Handle())
	if err := writeFresh(sub, dirFileName, encodeEntries(nil)); err != nil {
		return err
	}
	return writeAuxFile(writeFresh, sub, dirAttrName, aux, nil)
}

// cmpEID orders entries by entry id: the order a directory keeps its entries
// in, and the one used for conflict-name disambiguation, so that replicas that
// converge on the same entry set hold and render it identically.
func cmpEID(a, b ids.FileID) int {
	if c := cmp.Compare(a.Issuer, b.Issuer); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

func eidLess(a, b ids.FileID) bool { return cmpEID(a, b) < 0 }

// countLiveRefs counts live entries naming child within entries.
func countLiveRefs(entries []Entry, child ids.FileID) int {
	n := 0
	for _, e := range entries {
		if e.Live() && e.Child == child {
			n++
		}
	}
	return n
}
