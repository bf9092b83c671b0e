package physical

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// This file is the replication-control surface of the physical layer: the
// operations the update propagation daemon and the reconciliation protocol
// (internal/recon) use, locally or via the repl RPC service.  Directories
// are addressed by their full fid path from the volume root (always
// beginning with ids.RootFileID), mirroring how the reconciliation protocol
// "traverses an entire subgraph" (§3.3).

// RootPath returns the fid path of the volume root.
func RootPath() []ids.FileID { return []ids.FileID{ids.RootFileID} }

// DirState is a directory replica's reconciliation-relevant state.
type DirState struct {
	Entries []Entry
	VV      vv.Vector
	Aux     Aux
}

// DirEntries returns the entries and version vector of the directory at
// dirPath.  ErrNotStored reports that this volume replica has no storage
// for it.
func (l *Layer) DirEntries(dirPath []ids.FileID) (DirState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return DirState{}, err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return DirState{}, err
	}
	_, attr, err := l.fileAuxLocked(cont, dirAttrName)
	if err != nil {
		return DirState{}, err
	}
	return DirState{Entries: slices.Clone(d.entries), VV: attr.aux.VV, Aux: attr.aux}, nil
}

// FileState is a file replica's reconciliation-relevant state.
type FileState struct {
	Aux  Aux
	Size uint64
}

// FileInfo returns the auxiliary attributes of file fid in directory
// dirPath; ErrNotStored when the file has no local storage.
func (l *Layer) FileInfo(dirPath []ids.FileID, fid ids.FileID) (FileState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fileInfoLocked(dirPath, fid)
}

func (l *Layer) fileInfoLocked(dirPath []ids.FileID, fid ids.FileID) (FileState, error) {
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return FileState{}, err
	}
	c, err := l.copyLocked(cont, membersOf(KFile, fid))
	if vnode.AsErrno(err) == vnode.ENOENT {
		daux, err := l.childDirAuxLocked(cont, fid)
		return FileState{Aux: daux}, err
	} else if err != nil {
		return FileState{}, err
	}
	da, err := c.df.Getattr()
	if err != nil {
		return FileState{}, err
	}
	return FileState{Aux: c.aux, Size: da.Size}, nil
}

// childDirAuxLocked reads the attributes of fid as a child directory of
// container cont, which stores no file fid: they live inside the child's own
// container, and are read through the aux cache.
// ErrNotStored when cont stores no such directory either.
func (l *Layer) childDirAuxLocked(cont vnode.Vnode, fid ids.FileID) (Aux, error) {
	sub, err := cont.Lookup(memberName(prefixDir, fid))
	if err != nil {
		return Aux{}, ErrNotStored
	}
	_, e, err := l.fileAuxLocked(sub, dirAttrName)
	if err != nil {
		return Aux{}, err
	}
	return e.aux, nil
}

// convictLocked quarantines fid, whose bytes failed their seal on a read, and
// returns the ErrCorrupt that read answers.
func (l *Layer) convictLocked(fid ids.FileID) error {
	l.quarantineLocked(fid)
	return fmt.Errorf("%w: file %s failed verification on read", ErrCorrupt, fid)
}

// errQuarantined is what a read of quarantined fid's bytes answers.
func errQuarantined(fid ids.FileID) error {
	return fmt.Errorf("%w: file %s is quarantined", ErrCorrupt, fid)
}

// mapNotStored reports a member that is not there as the file not stored.
func mapNotStored(err error) error {
	if vnode.AsErrno(err) == vnode.ENOENT {
		return ErrNotStored
	}
	return err
}

// HasDir reports whether this replica stores the directory at dirPath.
func (l *Layer) HasDir(dirPath []ids.FileID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.containerOf(dirPath)
	return err == nil
}

// EnsureDirStored creates empty local storage for directory fid inside
// dirPath if absent, so a subtree acquired through reconciliation can be
// filled in.  aux supplies the directory's kind and graft target; its
// version vector is installed as given (zero history: everything will be
// merged in).
func (l *Layer) EnsureDirStored(dirPath []ids.FileID, fid ids.FileID, aux Aux) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	name := memberName(prefixDir, fid)
	if _, err := cont.Lookup(name); err == nil {
		return nil
	} else if vnode.AsErrno(err) != vnode.ENOENT {
		return err
	}
	return l.newContainerLocked(cont, fid, &Aux{Type: aux.Type, Nlink: 1, GraftVol: aux.GraftVol})
}

// MergeResult reports what ApplyDirMerge changed.
type MergeResult struct {
	Inserted   int // entries adopted from the remote replica
	Deleted    int // local entries tombstoned because the remote deleted them
	NameConfls int // live same-name entry pairs now coexisting (auto-repaired)
}

// Changed reports whether the merge modified the local replica.
func (r MergeResult) Changed() bool { return r.Inserted > 0 || r.Deleted > 0 }

// ApplyDirMerge merges a remote directory replica's entries into the local
// replica of the directory at dirPath.  This is the executable core of the
// Ficus directory reconciliation algorithm (§3.3): it "determines which
// entries have been added to or deleted from the remote replica, and
// applies appropriate entry insertion or deletion operations to the local
// replica."
//
// Entries are identified by their globally unique entry id, so the merge is
// a set union in which a tombstone for an entry id defeats its live form.
// Each remote entry — remote is a replica's directory, holding each id once —
// is found among the local ones by binary search over their id order.
// The result is commutative, associative and idempotent: pairwise
// reconciliation converges all replicas to the same directory no matter the
// order of encounters.  Concurrent same-name insertions survive as distinct
// entries whose rendered names are disambiguated deterministically — the
// automatic repair of directory update conflicts.
func (l *Layer) ApplyDirMerge(dirPath []ids.FileID, remote DirState) (MergeResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res MergeResult
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return res, err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return res, err
	}
	var changed []Entry                  // what the merge inserts or tombstones, as it meets them
	touched := make(map[ids.FileID]bool) // children whose live-name count may have changed
	for _, re := range remote.Entries {
		if i, ok := searchEID(d.entries, re.EID); ok {
			if e := d.entries[i]; re.Deleted && e.Live() {
				e.Deleted = true
				res.Deleted++
				changed = append(changed, e)
				touched[e.Child] = true
			}
			continue
		}
		changed = append(changed, re)
		// Also for an entry adopted already dead: local storage for its
		// child may exist (the propagation daemon can install file data
		// before the directory entry arrives) and must be reclaimed.
		touched[re.Child] = true
		if re.Live() {
			res.Inserted++
		}
	}
	// The merged state covers both histories: vv := merge(local, remote).
	covers := func(v vv.Vector) vv.Vector { return vv.Merge(v, remote.VV) }
	if err := l.commitDirLocked(cont, d, changed, nil, covers); err != nil {
		return res, err
	}
	// Settle each touched file as a local Remove or Link would: storage no
	// live entry names any more is reclaimed, and a link count follows the
	// number of live names (two partitioned renames of one file both survive,
	// leaving it with two, §2.5 fn3).  The walk is in entry order, not map
	// order: the order of the store operations decides what the UFS caches
	// hold, and so every counter that depends on them, and must be the same
	// from run to run.
	for _, e := range d.entries {
		if !touched[e.Child] || e.Kind.IsDir() {
			continue
		}
		delete(touched, e.Child)
		if err := l.settleChildLocked(cont, d.entries, e.Child); err != nil {
			return res, err
		}
	}
	res.NameConfls = countNameConflicts(d.entries)
	return res, nil
}

// settleChildLocked is the one storage rule, applied after every commit of
// entries that may have changed how many live names file child bears in the
// directory whose container is cont, and by Recover to every stored file: no
// live name, no storage; n live names, a stored link count of n.  (A file this
// replica does not store has nothing to settle.)
func (l *Layer) settleChildLocked(cont vnode.Vnode, entries []Entry, child ids.FileID) error {
	n := countLiveRefs(entries, child)
	if n == 0 {
		return l.removeStorageLocked(cont, child)
	}
	af, e, err := l.fileAuxLocked(cont, memberName(prefixAux, child))
	if err != nil || int(e.aux.Nlink) == n {
		return nil // not stored here (or not readable: Check's to report), or already right
	}
	aux := e.aux
	aux.Nlink = uint32(n)
	return l.rewriteAuxLocked(af, e, &aux, nil, nil)
}

// unshareLocked gives cont its own copy of file fid's members while they are
// hard links shared with another container — the transient state of a
// cross-directory rename, which must not outlive it: two directories sharing
// one aux would share one link count, and an install into either would move
// the other's vector without its bytes.  The aux goes last, so a shared aux
// marks an unshare still to do.
func (l *Layer) unshareLocked(cont vnode.Vnode, fid ids.FileID) error {
	ms := membersOf(KFile, fid)
	af, err := cont.Lookup(ms.stored)
	if err != nil {
		return nil // not stored here
	}
	if a, err := af.Getattr(); err != nil || a.Nlink < 2 {
		return err
	}
	for _, name := range []string{ms.data, ms.stored} {
		f, err := cont.Lookup(name)
		if vnode.AsErrno(err) == vnode.ENOENT {
			continue
		} else if err != nil {
			return err
		}
		data, err := vnode.ReadFile(f)
		if err != nil {
			return err
		}
		if err := atomicReplace(cont, name, data); err != nil {
			return err
		}
	}
	return nil
}

// removeStorageLocked reclaims both container members of file fid — data and
// aux — and whatever quarantine its bytes were under.  Absent members are
// fine: a replica need not store the file.
func (l *Layer) removeStorageLocked(cont vnode.Vnode, fid ids.FileID) error {
	ms := membersOf(KFile, fid)
	for _, name := range []string{ms.data, ms.stored} {
		if err := cont.Remove(name); err != nil && vnode.AsErrno(err) != vnode.ENOENT {
			return err
		}
	}
	l.clearQuarantineLocked(fid, false)
	return nil
}

func countNameConflicts(entries []Entry) int {
	names := make(map[string]int)
	for _, e := range entries {
		if e.Live() {
			names[e.Name]++
		}
	}
	n := 0
	for _, c := range names {
		if c > 1 {
			n += c - 1
		}
	}
	return n
}

// EvictFileStorage discards this volume replica's local copy of file fid in
// directory dirPath, keeping the directory entry.  The file remains part of
// the name space ("a volume replica may contain at most one replica of a
// file, but need not store a replica of any particular file", §4.1): local
// access answers ErrNotStored/ENOSTOR and the logical layer fails over to
// a replica that does store it.  Reconciliation or propagation can
// re-materialize the copy later.  Evicting the only stored copy of a file
// is the caller's responsibility to avoid.
func (l *Layer) EvictFileStorage(dirPath []ids.FileID, fid ids.FileID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return err
	}
	found := false
	for _, e := range d.entries {
		if e.Live() && e.Child == fid && !e.Kind.IsDir() {
			found = true
			break
		}
	}
	if !found {
		return vnode.ENOENT
	}
	if _, err := cont.Lookup(memberName(prefixData, fid)); err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return ErrNotStored
		}
		return err
	}
	// No local bytes, nothing left to distrust: the quarantine lifts too.
	return l.removeStorageLocked(cont, fid)
}

// StoresFile reports whether this replica holds a local copy of fid.
func (l *Layer) StoresFile(dirPath []ids.FileID, fid ids.FileID) bool {
	_, err := l.FileInfo(dirPath, fid)
	return err == nil
}

// StoredFiles lists the files of the directory at dirPath that this replica
// stores a copy of, from one listing of the directory's container: a file
// counts when both its aux and its data are there.  It reads no attribute, so
// a copy FileInfo would refuse — an aux a crash left empty, say — still
// counts: a caller that skips a file on its word must leave it to a pass that
// asks FileInfo.
func (l *Layer) StoredFiles(dirPath []ids.FileID) (map[ids.FileID]bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return nil, err
	}
	members, err := cont.Readdir()
	if err != nil {
		return nil, err
	}
	data := make(map[string]bool, len(members)/3)
	for _, m := range members {
		if s, ok := strings.CutPrefix(m.Name, prefixData); ok {
			data[s] = true
		}
	}
	stored := make(map[ids.FileID]bool, len(data))
	for _, m := range members {
		s, ok := strings.CutPrefix(m.Name, prefixAux)
		if !ok || !data[s] {
			continue
		}
		if fid, err := ids.ParseFileID(s); err == nil {
			stored[fid] = true
		}
	}
	return stored, nil
}

// DropTombstones removes the tombstoned entries with the given entry ids
// from the directory at dirPath, reclaiming any leftover local storage
// (e.g. the container of a deleted-but-stored directory).  The caller — the
// reconciliation layer's garbage collector — has established that every
// replica of the volume carries these tombstones, so no replica can ever
// re-introduce the dead entries (the completion of the paper's optimistic
// two-phase delete).
func (l *Layer) DropTombstones(dirPath []ids.FileID, eids []ids.FileID) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return 0, err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return 0, err
	}
	drop := make(map[ids.FileID]bool, len(eids))
	for _, e := range eids {
		drop[e] = true
	}
	var dropped []Entry
	for _, e := range d.entries {
		if e.Deleted && drop[e.EID] {
			dropped = append(dropped, e)
		}
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	if err := l.commitDirLocked(cont, d, nil, drop, nil); err != nil {
		return len(dropped), err
	}
	// Reclaim what the collected tombstones were the last to name: a file's
	// leftover storage, and the container of a directory stored here.
	for _, e := range dropped {
		if !e.Kind.IsDir() {
			if err := l.settleChildLocked(cont, d.entries, e.Child); err != nil {
				return len(dropped), err
			}
		} else if countAnyRefs(d.entries, e.Child) == 0 {
			l.conts.Flush() // the container's inode is about to be free for reuse
			if err := removeTree(cont, memberName(prefixDir, e.Child)); err != nil && vnode.AsErrno(err) != vnode.ENOENT {
				return len(dropped), err
			}
		}
	}
	return len(dropped), nil
}

// countAnyRefs counts entries (live or tombstoned) naming child.
func countAnyRefs(entries []Entry, child ids.FileID) int {
	n := 0
	for _, e := range entries {
		if e.Child == child {
			n++
		}
	}
	return n
}

// removeTree deletes the named directory subtree from the UFS container.
func removeTree(parent vnode.Vnode, name string) error {
	sub, err := parent.Lookup(name)
	if err != nil {
		return err
	}
	ents, err := sub.Readdir()
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type == vnode.VDir {
			if err := removeTree(sub, e.Name); err != nil {
				return err
			}
			continue
		}
		if err := sub.Remove(e.Name); err != nil {
			return err
		}
	}
	return parent.Rmdir(name)
}

// AppendEntry inserts a pre-built entry into the directory at dirPath,
// bumping the directory version vector.  The volume management code uses it
// to maintain graft-point tables (volume replica -> storage site) as
// ordinary directory entries (§4.3).
func (l *Layer) AppendEntry(dirPath []ids.FileID, e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	d, err := l.dirLocked(cont)
	if err != nil {
		return err
	}
	if e.EID.IsNil() {
		eid, err := l.nextIDLocked()
		if err != nil {
			return err
		}
		e.EID = eid
	}
	return l.commitDirLocked(cont, d, []Entry{e}, nil, l.bumpVV)
}

// NextID allocates a fresh unique id from this replica's sequencer (for
// graft-table entries and tests).
func (l *Layer) NextID() (ids.FileID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextIDLocked()
}

// --- New-version cache and conflict log ---------------------------------

// NoteNewVersion records an update notification: origin holds a newer
// version of file (in directory dirPath).  Repeated notifications for the
// same file coalesce — the coalescing is what makes delayed propagation
// cheaper under bursty updates (§3.2).
func (l *Layer) NoteNewVersion(dirPath []ids.FileID, file ids.FileID, origin ids.ReplicaID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A cache entry must name a live remote replica the daemon could pull
	// from: never the zero (unset) id, never ourselves — we already hold
	// our own updates, and a self-entry would make the daemon pull from a
	// replica that by definition has nothing newer.
	invariant.Checkf(origin != 0 && origin != l.replica,
		"physical: new-version cache entry for %s names origin %d (local replica %d); entries must name a live remote replica",
		file, origin, l.replica)
	k := nvcKey{file: file}
	nv, ok := l.nvc[k]
	if !ok {
		nv = NewVersion{File: file, Dir: append([]ids.FileID(nil), dirPath...)}
	}
	nv.Origin = origin
	nv.Seen++
	// Fresh news: there really is something new at the origin, so any
	// backoff deferral is lifted (accumulated Attempts keep the next
	// backoff step high if the origin is flapping).
	nv.NotBefore = 0
	l.nvc[k] = nv
}

// DeferPending records a failed propagation attempt for file: the attempt
// count grows and the entry is not due again before daemon tick notBefore.
// A no-op if the entry has been dropped meanwhile.
func (l *Layer) DeferPending(file ids.FileID, notBefore uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := nvcKey{file: file}
	if nv, ok := l.nvc[k]; ok {
		nv.Attempts++
		nv.NotBefore = notBefore
		l.nvc[k] = nv
	}
}

// AdvanceDaemonTick advances the replica's virtual daemon clock by one
// pass and returns the new tick.  The propagation daemon calls it once per
// pass; NewVersion.NotBefore is measured on this clock.
func (l *Layer) AdvanceDaemonTick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.daemonTick++
	return l.daemonTick
}

// DaemonTick reads the virtual daemon clock.
func (l *Layer) DaemonTick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.daemonTick
}

// PendingVersions lists new-version cache entries, oldest-announced first
// by file id order (deterministic).
func (l *Layer) PendingVersions() []NewVersion {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]NewVersion, 0, len(l.nvc))
	for _, nv := range l.nvc {
		out = append(out, nv)
	}
	sort.Slice(out, func(i, j int) bool { return eidLess(out[i].File, out[j].File) })
	return out
}

// DropPending removes a new-version cache entry after propagation.
func (l *Layer) DropPending(file ids.FileID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.nvc, nvcKey{file: file})
}

// ReportConflict appends to the conflict log ("conflicting updates to
// ordinary files are detected and reported to the owner", §1).  Re-detected
// conflicts (same file, same version-vector pair) coalesce so periodic
// reconciliation does not flood the owner.
func (l *Layer) ReportConflict(c Conflict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, old := range l.conflicts {
		if old.File == c.File &&
			((old.LocalVV.Equal(c.LocalVV) && old.RemoteVV.Equal(c.RemoteVV)) ||
				(old.LocalVV.Equal(c.RemoteVV) && old.RemoteVV.Equal(c.LocalVV))) {
			return
		}
	}
	l.conflicts = append(l.conflicts, c)
}

// settleConflictsLocked drops the logged conflicts on fid that the version it
// now holds, under now, settles: those whose remote history it dominates (a
// resolution, or a later version of the remote side).  The commit of a
// version is the one place a conflict leaves the log; agreeing with some
// other replica does not settle a conflict with this one.
func (l *Layer) settleConflictsLocked(fid ids.FileID, now vv.Vector) {
	kept := l.conflicts[:0]
	for _, c := range l.conflicts {
		if c.File != fid || !now.DominatesOrEqual(c.RemoteVV) {
			kept = append(kept, c)
		}
	}
	l.conflicts = kept
}

// Conflicts returns the conflict log.
func (l *Layer) Conflicts() []Conflict {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Conflict(nil), l.conflicts...)
}

// ClearConflicts empties the conflict log (the owner has dealt with them).
func (l *Layer) ClearConflicts() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conflicts = nil
}

// OpenCount reports how many opens of fid are outstanding (fed by direct
// Open calls and by the open-over-lookup encoding).  Graft pruning reads the
// per-replica total, OpenFiles, instead (§4.4).
func (l *Layer) OpenCount(fid ids.FileID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opens[fid]
}

// TotalOpens reports the cumulative number of opens the layer has seen.
func (l *Layer) TotalOpens() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.openTotal
}

// OpenFiles reports how many distinct files currently have outstanding
// opens.
func (l *Layer) OpenFiles() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.opens {
		if c > 0 {
			n++
		}
	}
	return n
}
