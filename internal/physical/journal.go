package physical

// The durable new-version cache journal.
//
// The new-version cache drives pull-based update propagation (§3.2); losing
// it on a crash is survivable — reconciliation is the lossless backstop —
// but needlessly slow: every pending pull the host owed would wait for the
// next full reconcile sweep.  The journal makes the cache durable: a small
// append-only region at the store root (beside the meta file, invisible to
// the Ficus Check walk which starts at the root container) records every
// note and drop, and is replayed when the volume replica is re-opened after
// a crash.
//
// Format: a 5-byte header (magic "NVCJ" + version) followed by records:
//
//	upsert: op=1, file fid(12), origin u32, seen u32, attempts u32,
//	        notBefore u64, dir-path count uvarint, dir fids (12 each)
//	drop:   op=2, file fid(12)
//
// Records are appended under the layer lock, in one WriteAt each, so a
// crash can tear at most the final record; replay stops at the first short
// or invalid record, discarding the torn tail.  Appends are best-effort:
// a failed journal write is counted (JournalErrors) but never fails the
// note/drop itself — durability here is an optimization, not a correctness
// requirement.  The journal is compacted (rewritten as a snapshot of the
// live cache, by atomicReplace) when the record count outgrows the cache,
// and normalized the same way on every open.

import (
	"encoding/binary"

	"repro/internal/ids"
	"repro/internal/vnode"
)

const (
	nvcjFileName = "nvcj"
	nvcjVersion  = 1

	nvcjOpUpsert = 1
	nvcjOpDrop   = 2
)

var nvcjMagic = []byte("NVCJ")

// appendJournalFID mirrors the repl wire codec's fid layout.
func appendJournalFID(dst []byte, f ids.FileID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Issuer))
	return binary.BigEndian.AppendUint64(dst, f.Seq)
}

func encodeUpsert(dst []byte, nv NewVersion) []byte {
	dst = append(dst, nvcjOpUpsert)
	dst = appendJournalFID(dst, nv.File)
	dst = binary.BigEndian.AppendUint32(dst, uint32(nv.Origin))
	dst = binary.BigEndian.AppendUint32(dst, uint32(nv.Seen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(nv.Attempts))
	dst = binary.BigEndian.AppendUint64(dst, nv.NotBefore)
	dst = binary.AppendUvarint(dst, uint64(len(nv.Dir)))
	for _, f := range nv.Dir {
		dst = appendJournalFID(dst, f)
	}
	return dst
}

func encodeDrop(dst []byte, file ids.FileID) []byte {
	dst = append(dst, nvcjOpDrop)
	return appendJournalFID(dst, file)
}

// jdec is a bounds-checked journal reader; short reads set eof instead of
// erroring because a torn tail is expected after a crash.
type jdec struct {
	b   []byte
	eof bool
}

func (d *jdec) take(n int) []byte {
	if d.eof || len(d.b) < n {
		d.eof = true
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *jdec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *jdec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *jdec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *jdec) fid() ids.FileID {
	return ids.FileID{Issuer: ids.ReplicaID(d.u32()), Seq: d.u64()}
}

func (d *jdec) count() uint64 {
	if d.eof {
		return 0
	}
	n, used := binary.Uvarint(d.b)
	if used <= 0 {
		d.eof = true
		return 0
	}
	d.b = d.b[used:]
	return n
}

// replayJournal applies journal records to the (fresh) in-memory cache,
// stopping at the first short or invalid record.  Records naming an origin
// the cache may not hold (zero, or this replica itself) are skipped: they
// can only come from corruption, and replaying them would trip the
// NoteNewVersion invariant the daemons rely on.
func (l *Layer) replayJournal(data []byte) {
	if len(data) < len(nvcjMagic)+1 {
		return
	}
	for i, c := range nvcjMagic {
		if data[i] != c {
			return
		}
	}
	if data[len(nvcjMagic)] != nvcjVersion {
		return
	}
	d := &jdec{b: data[len(nvcjMagic)+1:]}
	for !d.eof && len(d.b) > 0 {
		switch d.u8() {
		case nvcjOpUpsert:
			nv := NewVersion{File: d.fid()}
			nv.Origin = ids.ReplicaID(d.u32())
			nv.Seen = int(d.u32())
			nv.Attempts = int(d.u32())
			nv.NotBefore = d.u64()
			n := d.count()
			// Cap against remaining bytes before allocating.
			if d.eof || n > uint64(len(d.b)/12) {
				return
			}
			nv.Dir = make([]ids.FileID, n)
			for i := range nv.Dir {
				nv.Dir[i] = d.fid()
			}
			if d.eof {
				return
			}
			if nv.Origin == 0 || nv.Origin == l.replica {
				continue
			}
			l.nvc[nvcKey{file: nv.File}] = nv
		case nvcjOpDrop:
			f := d.fid()
			if d.eof {
				return
			}
			delete(l.nvc, nvcKey{file: f})
		default:
			return
		}
	}
}

// snapshotJournalLocked renders the full journal image for the current
// cache contents.
func (l *Layer) snapshotJournalLocked() []byte {
	data := append([]byte(nil), nvcjMagic...)
	data = append(data, nvcjVersion)
	for _, nv := range l.pendingVersionsLocked() {
		data = encodeUpsert(data, nv)
	}
	return data
}

// rewriteJournalLocked replaces the journal with a snapshot of the live
// cache via the store's usual atomic commit.
func (l *Layer) rewriteJournalLocked() error {
	data := l.snapshotJournalLocked()
	if err := atomicReplace(l.root, nvcjFileName, data); err != nil {
		return err
	}
	f, err := l.root.Lookup(nvcjFileName)
	if err != nil {
		return err
	}
	l.nvcj = f
	l.nvcjSize = uint64(len(data))
	l.nvcjRecs = len(l.nvc)
	return nil
}

// initJournalLocked creates a fresh empty journal (volume format time).
func (l *Layer) initJournalLocked() error {
	return l.rewriteJournalLocked()
}

// openJournalLocked replays the journal while (re)opening a volume replica
// — Recover has already settled a shadow left by a crash mid-compaction —
// then rewrites the normalized snapshot.  A missing journal (store formatted
// before journaling existed) starts empty.
func (l *Layer) openJournalLocked() error {
	if f, err := l.root.Lookup(nvcjFileName); err == nil {
		data, err := vnode.ReadFile(f)
		if err != nil {
			return err
		}
		l.replayJournal(data)
	} else if vnode.AsErrno(err) != vnode.ENOENT {
		return err
	}
	return l.rewriteJournalLocked()
}

// journalAppendLocked appends one record, best-effort: a failed append is
// counted but does not fail the caller (reconciliation remains the lossless
// backstop for a cache entry the journal missed).
func (l *Layer) journalAppendLocked(rec []byte) {
	if l.nvcj == nil {
		return
	}
	if _, err := l.nvcj.WriteAt(rec, int64(l.nvcjSize)); err != nil {
		l.journalErrs++
		return
	}
	l.nvcjSize += uint64(len(rec))
	l.nvcjRecs++
	// Compact once drops and re-notes dominate the live entries, so the
	// journal stays proportional to the cache instead of the workload.
	if l.nvcjRecs > 64 && l.nvcjRecs > 4*len(l.nvc)+16 {
		if err := l.rewriteJournalLocked(); err != nil {
			l.journalErrs++
		}
	}
}

// JournalErrors reports how many best-effort NVC journal writes have failed
// (each such miss is recovered by the next reconciliation pass).
func (l *Layer) JournalErrors() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journalErrs
}
