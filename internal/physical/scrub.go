package physical

// The volume-replica scrub pass: the storage-side half of the background
// scrubber daemon (core.Host drives the passes; the pulls heal).  One pass walks
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
	return l.scrubContainerLocked(cont)
}

func (l *Layer) scrubContainerLocked(cont vnode.Vnode) error {
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
			sub, err := cont.Lookup(memberName(prefixDir, e.Child))
			if err != nil {
				continue // not stored here (§4.1)
			}
			if err := l.scrubContainerLocked(sub); err != nil {
				return err
			}
			continue
		}
		l.scrubFileLocked(cont, e.Child)
	}
	return nil
}

// scrubFileLocked verifies or reseals one stored file replica.
func (l *Layer) scrubFileLocked(cont vnode.Vnode, fid ids.FileID) {
	aux, sc, err := readAuxFile(cont, memberName(prefixAux, fid))
	if err != nil {
		return // not stored here, or mid-materialization; nothing to vouch for
	}
	df, err := cont.Lookup(memberName(prefixData, fid))
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
	l.quarantineLocked(fid)
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
	df, err := cont.Lookup(memberName(prefixData, fid))
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
