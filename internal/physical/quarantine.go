package physical

// Quarantine: the holding state for a stored file replica whose data fails
// its sealed block addresses.  A quarantined replica keeps its directory
// entry and aux attributes — the *version* still exists in the name space —
// but its local bytes are untrusted:
//
//   - local reads answer ENOSTOR so the logical layer fails over to a
//     replica that can serve the version (one-copy availability, §2.2);
//   - the replication read path, a pull's answer, is ErrCorrupt: a
//     TRANSIENT error, so a puller defers and re-arms its new-version cache
//     entry instead of dropping it — corruption is never propagated;
//   - a pull of the file, whichever pass runs it (propagation, a directory
//     notice, reconciliation, the restart rescan), asks the peer
//     unconditionally, so even a peer holding the very same version ships
//     it; the install verifies the payload against the shipped manifest and
//     clears the quarantine.

import (
	"fmt"

	"repro/internal/ids"
)

// IntegrityStats counts the integrity subsystem's work on one volume
// replica.  Quarantined is a gauge (currently quarantined files); the rest
// are cumulative.
type IntegrityStats struct {
	ScrubbedFiles       uint64 // file versions verified against their seal
	ScrubbedBlocks      uint64 // block addresses verified
	Resealed            uint64 // unverifiable seals recomputed from local data
	CorruptionsDetected uint64 // verification failures that entered quarantine
	Cleared             uint64 // quarantined files a scrub found verifying again (superseded in place)
	Repaired            uint64 // quarantined versions healed by a verified install
	Quarantined         uint64 // files currently in quarantine
}

// Add accumulates (aggregation across layers and hosts).
func (s *IntegrityStats) Add(t IntegrityStats) {
	s.ScrubbedFiles += t.ScrubbedFiles
	s.ScrubbedBlocks += t.ScrubbedBlocks
	s.Resealed += t.Resealed
	s.CorruptionsDetected += t.CorruptionsDetected
	s.Cleared += t.Cleared
	s.Repaired += t.Repaired
	s.Quarantined += t.Quarantined
}

// String renders the stats compactly.
func (s IntegrityStats) String() string {
	return fmt.Sprintf("scrubbed=%d blocks=%d resealed=%d detected=%d cleared=%d repaired=%d quarantined=%d",
		s.ScrubbedFiles, s.ScrubbedBlocks, s.Resealed, s.CorruptionsDetected, s.Cleared, s.Repaired, s.Quarantined)
}

// IntegrityStats returns a snapshot of this volume replica's counters.
func (l *Layer) IntegrityStats() IntegrityStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.integ
	s.Quarantined = uint64(len(l.quar))
	return s
}

// quarantineLocked places fid in quarantine (a no-op when already
// quarantined, so repeated detections of the same damage count once).
// Caller holds l.mu.
func (l *Layer) quarantineLocked(fid ids.FileID) {
	if l.quar[fid] {
		return
	}
	l.quar[fid] = true
	l.integ.CorruptionsDetected++
}

// clearQuarantineLocked lifts fid's quarantine; repaired records whether a
// verified replacement landed (counted) or the quarantine simply became
// moot (e.g. the storage was evicted).  Caller holds l.mu.
func (l *Layer) clearQuarantineLocked(fid ids.FileID, repaired bool) {
	if !l.quar[fid] {
		return
	}
	delete(l.quar, fid)
	if repaired {
		l.integ.Repaired++
	}
}

// isQuarantinedLocked reports whether fid is quarantined.  Caller holds l.mu.
func (l *Layer) isQuarantinedLocked(fid ids.FileID) bool {
	return l.quar[fid]
}

// IsQuarantined reports whether fid's local copy is quarantined.
func (l *Layer) IsQuarantined(fid ids.FileID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.isQuarantinedLocked(fid)
}
