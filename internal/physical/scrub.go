package physical

// The volume-replica scrub pass: the storage-side half of the background
// scrubber daemon (core.Host drives passes and repairs).  One pass walks
// every container, and for every locally stored file replica either
// verifies the data against its seal, or — when the aux's seal is missing,
// torn, or sealed under a vector that no longer matches the header — reseals
// it from the local data.  Verification failures enter quarantine;
// a quarantined replica that verifies again (a newer version was installed
// over it) leaves quarantine.

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// ScrubPass sweeps the whole volume replica once.  It is deterministic
// (container entries are visited in stored order) and safe to run at any
// time; the layer lock is held for the duration, like Check, so the
// difference of two IntegrityStats snapshots taken around it is exactly what
// the pass did.
func (l *Layer) ScrubPass() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.rootContainer()
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return nil
		}
		return err
	}
	return l.scrubContainerLocked(cont, []ids.FileID{ids.RootFileID})
}

func (l *Layer) scrubContainerLocked(cont vnode.Vnode, dirPath []ids.FileID) error {
	entries, _, err := l.readDirFileLocked(cont)
	if err != nil {
		// An unreadable contents file is Check's problem, not the scrubber's.
		return nil
	}
	for _, e := range entries {
		if !e.Live() {
			continue
		}
		if e.Kind.IsDir() {
			sub, err := cont.Lookup(prefixDir + e.Child.String())
			if err != nil {
				continue // not stored here (§4.1)
			}
			childPath := append(append([]ids.FileID(nil), dirPath...), e.Child)
			if err := l.scrubContainerLocked(sub, childPath); err != nil {
				return err
			}
			continue
		}
		l.scrubFileLocked(cont, dirPath, e.Child)
	}
	return nil
}

// scrubFileLocked verifies or reseals one stored file replica.
func (l *Layer) scrubFileLocked(cont vnode.Vnode, dirPath []ids.FileID, fid ids.FileID) {
	_, aux, sc, err := openAuxFile(cont, prefixAux+fid.String())
	if err != nil {
		return // not stored here, or mid-materialization; nothing to vouch for
	}
	df, err := cont.Lookup(prefixData + fid.String())
	if err != nil {
		return
	}
	data, err := vnode.ReadFile(df)
	if err != nil {
		return // an I/O error is the fault plane's business; retried next pass
	}
	if sc == nil {
		// Unverifiable — but never reseal a quarantined replica: that would
		// launder bytes already known bad under a fresh seal.
		if l.isQuarantinedLocked(fid) {
			return
		}
		if err := l.sealLocked(cont, fid, &aux, ComputeManifest(data)); err == nil {
			l.integ.Resealed++
		}
		return
	}
	l.integ.ScrubbedFiles++
	l.integ.ScrubbedBlocks += uint64(len(sc.Blocks))
	if sc.Verify(data) {
		if l.isQuarantinedLocked(fid) {
			l.clearQuarantineLocked(fid, false)
			l.integ.Cleared++
		}
		return
	}
	if !l.isQuarantinedLocked(fid) {
		l.quarantineLocked(dirPath, fid, aux.VV)
	}
}

// RepairDue lists the quarantined entries eligible for a repair attempt at
// daemon tick now, in deterministic file-id order.
func (l *Layer) RepairDue(now uint64) []QuarEntry {
	var due []QuarEntry
	for _, q := range l.QuarantinedVersions() {
		if q.NotBefore <= now {
			due = append(due, q)
		}
	}
	return due
}

// CorruptData flips one byte of fid's stored data file in place, bypassing
// the version bump and reseal every legitimate write performs — at-rest bit
// rot, as a deterministic test injection.  The aux and its seal are
// untouched, so the damage is exactly what the scrubber must detect.
func (l *Layer) CorruptData(dirPath []ids.FileID, fid ids.FileID, off uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	df, err := cont.Lookup(prefixData + fid.String())
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return ErrNotStored
		}
		return err
	}
	data, err := vnode.ReadFile(df)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("physical: cannot bit-rot empty file %s", fid)
	}
	if off >= uint64(len(data)) {
		off = uint64(len(data)) - 1
	}
	_, err = df.WriteAt([]byte{data[off] ^ 0x40}, int64(off))
	return err
}
