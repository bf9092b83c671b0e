package physical

import (
	"fmt"
	"sort"

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

// encodeEntries serializes a directory contents file: a u32 entry count, then
// per entry the entry id, the child id, the kind, the tombstone mark, and the
// name and the value each behind a u16 length.
func encodeEntries(entries []Entry) []byte {
	out := wire.AppendU32(nil, uint32(len(entries)))
	for _, e := range entries {
		out = wire.AppendFID(out, e.EID)
		out = wire.AppendFID(out, e.Child)
		out = wire.AppendU8(out, byte(e.Kind))
		out = wire.AppendBool(out, e.Deleted)
		out = append(wire.AppendU16(out, uint16(len(e.Name))), e.Name...)
		out = append(wire.AppendU16(out, uint16(len(e.Value))), e.Value...)
	}
	return out
}

func decodeEntries(p []byte) ([]Entry, error) {
	d := wire.NewDecoder(p)
	n := int(d.U32())
	// An entry occupies at least 30 bytes; a count the file cannot back
	// must not size the allocation.
	if n > d.Len()/30 {
		return nil, fmt.Errorf("physical: directory file of %d bytes claims %d entries", len(p), n)
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e := Entry{EID: d.FID(), Child: d.FID(), Kind: Kind(d.U8()), Deleted: d.Bool()}
		e.Name = string(d.Take(int(d.U16())))
		e.Value = string(d.Take(int(d.U16())))
		out = append(out, e)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("physical: directory file: %w", err)
	}
	return out, nil
}

// readDirFileLocked loads the entries of the directory whose container is
// cont from the store: for dirLocked on a miss, and for the verifiers — Check,
// Recover, the scrubber — whose word must be the store's, not the cache's.
func (l *Layer) readDirFileLocked(cont vnode.Vnode) ([]Entry, error) {
	f, err := cont.Lookup(dirFileName)
	if err != nil {
		return nil, err
	}
	data, err := vnode.ReadFile(f)
	if err != nil {
		return nil, err
	}
	return decodeEntries(data)
}

// commitDirLocked is how a directory changes: the complete new entry list
// atomically replaces the contents file — the operation's commit point — and
// then advance, unless nil, moves the directory's version vector in attr
// (bumpVV for a local mutation, a merge for reconciliation).  A crash between
// the two leaves the new entries under the old vector, which costs the next
// reconciliation a look at a directory it would otherwise have skipped.  The
// cached image goes first, and its successor (entries is the cache's from then
// on) comes only once both writes are down: no failure leaves a stale cache.
func (l *Layer) commitDirLocked(cont vnode.Vnode, entries []Entry, advance func(vv.Vector) vv.Vector) error {
	key := cont.Handle()
	l.dirs.Drop(key)
	if err := atomicReplace(cont, dirFileName, encodeEntries(entries)); err != nil {
		return err
	}
	if advance == nil {
		return nil
	}
	af, aux, err := openAuxFile(cont, dirAttrName)
	if err != nil {
		return err
	}
	aux.VV = advance(aux.VV)
	if err := writeAuxVnode(af, &aux); err != nil {
		return err
	}
	l.dirs.Put(key, newDirImage(entries, &aux))
	return nil
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
// container without attr never finished materialising and Recover removes it.
func (l *Layer) newContainerLocked(parent vnode.Vnode, fid ids.FileID, aux *Aux) error {
	sub, err := parent.Mkdir(prefixDir + fid.String())
	if err != nil {
		return err
	}
	if err := l.commitDirLocked(sub, nil, nil); err != nil {
		return err
	}
	return writeAuxFile(sub, dirAttrName, aux)
}

// eidLess orders entries by entry id, which is the deterministic order used
// for conflict-name disambiguation: after replicas converge on the same
// entry set, they render identical names.
func eidLess(a, b ids.FileID) bool {
	if a.Issuer != b.Issuer {
		return a.Issuer < b.Issuer
	}
	return a.Seq < b.Seq
}

// liveSorted returns live entries sorted by entry id (stable listing order).
func liveSorted(entries []Entry) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Live() {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return eidLess(out[i].EID, out[j].EID) })
	return out
}

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
