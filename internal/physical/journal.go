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
	"bytes"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/wire"
)

const (
	nvcjFileName = "nvcj"
	nvcjVersion  = 1

	nvcjOpUpsert = 1
	nvcjOpDrop   = 2
)

var nvcjMagic = []byte("NVCJ")

func encodeUpsert(dst []byte, nv NewVersion) []byte {
	dst = wire.AppendU8(dst, nvcjOpUpsert)
	dst = wire.AppendFID(dst, nv.File)
	dst = wire.AppendU32(dst, uint32(nv.Origin))
	dst = wire.AppendU32(dst, uint32(nv.Seen))
	dst = wire.AppendU32(dst, uint32(nv.Attempts))
	dst = wire.AppendU64(dst, nv.NotBefore)
	return wire.AppendPath(dst, nv.Dir)
}

func encodeDrop(dst []byte, file ids.FileID) []byte {
	dst = wire.AppendU8(dst, nvcjOpDrop)
	return wire.AppendFID(dst, file)
}

// replayJournal applies journal records to the (fresh) in-memory cache,
// stopping at the first short or invalid record: a torn tail is expected
// after a crash, so the decoder's first failure ends the replay instead of
// being reported.  Records naming an origin the cache may not hold (zero,
// or this replica itself) are skipped: they can only come from corruption,
// and replaying them would trip the NoteNewVersion invariant the daemons
// rely on.
func (l *Layer) replayJournal(data []byte) {
	d := wire.NewDecoder(data)
	if !bytes.Equal(d.Take(len(nvcjMagic)), nvcjMagic) {
		return
	}
	d.Version(nvcjVersion)
	for d.Err() == nil && d.Len() > 0 {
		switch d.U8() {
		case nvcjOpUpsert:
			nv := NewVersion{File: d.FID()}
			nv.Origin = ids.ReplicaID(d.U32())
			nv.Seen = int(d.U32())
			nv.Attempts = int(d.U32())
			nv.NotBefore = d.U64()
			nv.Dir = d.Path()
			if d.Err() != nil {
				return
			}
			if nv.Origin == 0 || nv.Origin == l.replica {
				continue
			}
			l.nvc[nvcKey{file: nv.File}] = nv
		case nvcjOpDrop:
			f := d.FID()
			if d.Err() != nil {
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
