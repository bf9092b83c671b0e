package physical

// Quarantine: the holding state for a stored file replica whose data fails
// its sealed block addresses.  A quarantined replica keeps its directory
// entry and aux attributes — the *version* still exists in the name space —
// but its local bytes are untrusted:
//
//   - local reads answer ENOSTOR so the logical layer fails over to a
//     replica that can serve the version (one-copy availability, §2.2);
//   - the replication read path (FileData) answers ErrCorrupt, a TRANSIENT
//     error, so a puller defers and re-arms its new-version cache entry
//     instead of dropping it — corruption is never propagated;
//   - the scrub/repair daemon re-pulls the version from a peer whose vector
//     dominates-or-equals the quarantined one, verifies the payload against
//     the shipped manifest, and reinstalls, clearing the quarantine.

import (
	"fmt"
	"sort"

	"repro/internal/ids"
	"repro/internal/vv"
)

// QuarEntry is one quarantined file replica awaiting repair.
type QuarEntry struct {
	File ids.FileID
	Dir  []ids.FileID // fid path of the containing directory
	VV   vv.Vector    // aux vector of the corrupt version (repair must dominate-or-equal it)

	// Repair bookkeeping, mirroring NewVersion: failed attempts back off on
	// the virtual daemon clock instead of hammering an unreachable peer.
	Attempts  int
	NotBefore uint64

	// Unrepairable records that at least one repair round got a definitive
	// refusal from every known peer (counted once, for stats); repair keeps
	// retrying regardless — a peer may yet reappear with a good copy.
	Unrepairable bool
}

// IntegrityStats counts the integrity subsystem's work on one volume
// replica.  Quarantined is a gauge (currently quarantined files); the rest
// are cumulative.
type IntegrityStats struct {
	ScrubbedFiles       uint64 // file versions verified against their seal
	ScrubbedBlocks      uint64 // block addresses verified
	Resealed            uint64 // unverifiable seals recomputed from local data
	CorruptionsDetected uint64 // verification failures that entered quarantine
	Cleared             uint64 // quarantined files a scrub found verifying again (superseded in place)
	Repaired            uint64 // quarantined versions healed from a peer
	Unrepairable        uint64 // repair rounds where every known peer definitively refused
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
	s.Unrepairable += t.Unrepairable
	s.Quarantined += t.Quarantined
}

// String renders the stats compactly.
func (s IntegrityStats) String() string {
	return fmt.Sprintf("scrubbed=%d blocks=%d resealed=%d detected=%d cleared=%d repaired=%d unrepairable=%d quarantined=%d",
		s.ScrubbedFiles, s.ScrubbedBlocks, s.Resealed, s.CorruptionsDetected, s.Cleared, s.Repaired, s.Unrepairable, s.Quarantined)
}

// IntegrityStats returns a snapshot of this volume replica's counters.
func (l *Layer) IntegrityStats() IntegrityStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.integ
	s.Quarantined = uint64(len(l.quar))
	return s
}

// quarantineLocked places fid in quarantine under vector vvec (a no-op when
// already quarantined, so repeated detections of the same damage count
// once).  Caller holds l.mu.
func (l *Layer) quarantineLocked(dirPath []ids.FileID, fid ids.FileID, vvec vv.Vector) {
	if _, ok := l.quar[fid]; ok {
		return
	}
	l.quar[fid] = QuarEntry{
		File: fid,
		Dir:  append([]ids.FileID(nil), dirPath...),
		VV:   vvec.Clone(),
	}
	l.integ.CorruptionsDetected++
}

// clearQuarantineLocked lifts fid's quarantine; repaired records whether a
// verified replacement landed (counted) or the quarantine simply became
// moot (e.g. the storage was evicted).  Caller holds l.mu.
func (l *Layer) clearQuarantineLocked(fid ids.FileID, repaired bool) {
	if _, ok := l.quar[fid]; !ok {
		return
	}
	delete(l.quar, fid)
	if repaired {
		l.integ.Repaired++
	}
}

// isQuarantinedLocked reports whether fid is quarantined.  Caller holds l.mu.
func (l *Layer) isQuarantinedLocked(fid ids.FileID) bool {
	_, ok := l.quar[fid]
	return ok
}

// IsQuarantined reports whether fid's local copy is quarantined.
func (l *Layer) IsQuarantined(fid ids.FileID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.isQuarantinedLocked(fid)
}

// QuarantinedVersions lists the quarantine set in deterministic file-id
// order.
func (l *Layer) QuarantinedVersions() []QuarEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QuarEntry, 0, len(l.quar))
	for _, q := range l.quar {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return eidLess(out[i].File, out[j].File) })
	return out
}

// DeferRepair records a failed repair attempt for file: the attempt count
// grows and the entry is not due again before daemon tick notBefore.
func (l *Layer) DeferRepair(file ids.FileID, notBefore uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if q, ok := l.quar[file]; ok {
		q.Attempts++
		q.NotBefore = notBefore
		l.quar[file] = q
	}
}

// NoteUnrepairable records a repair round in which every known peer
// definitively refused (no copy, or only dominated/unverifiable versions).
// Counted once per quarantine spell; the entry stays queued — optimism says
// a healthy replica may yet reappear.
func (l *Layer) NoteUnrepairable(file ids.FileID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q, ok := l.quar[file]
	if !ok || q.Unrepairable {
		return
	}
	q.Unrepairable = true
	l.quar[file] = q
	l.integ.Unrepairable++
}
