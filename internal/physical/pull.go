package physical

import (
	"errors"

	"repro/internal/ids"
	"repro/internal/vv"
)

// The conditional pull: the one way a replica learns a file version from a
// peer, whether a notification (update propagation), a periodic directory
// visit (reconciliation) or a quarantined copy (repair) prompted it.
//
// The puller ships its local vector with each request, and the serving side
// folds both halves of the version-vector protocol into one answer per entry
// — exactly one of {data, stale, concurrent, not-stored, is-dir, error} — so
// file bytes cross the wire only when the remote version actually dominates.

// PullStatus classifies one entry of a batched conditional pull.
type PullStatus byte

// Per-entry outcomes of a conditional pull.
const (
	// PullData: the remote version dominates (or the puller stores no
	// copy); the answer carries the full version for InstallPulled.
	PullData PullStatus = iota + 1
	// PullStale: the puller's vector dominates or equals — stale news,
	// nothing shipped.
	PullStale
	// PullConcurrent: the histories are concurrent; RemoteVV carries the
	// remote vector so the puller can report the conflict to the owner.
	PullConcurrent
	// PullNotStored: this replica stores no copy of the file.
	PullNotStored
	// PullIsDir: the entry names a directory; directories propagate by
	// operation replay (directory reconciliation), never by copy.
	PullIsDir
	// PullError: the attempt failed on the serving side; Err explains.
	PullError
)

// String renders the status.
func (s PullStatus) String() string {
	switch s {
	case PullData:
		return "data"
	case PullStale:
		return "stale"
	case PullConcurrent:
		return "concurrent"
	case PullNotStored:
		return "not-stored"
	case PullIsDir:
		return "is-dir"
	case PullError:
		return "error"
	default:
		return "invalid"
	}
}

// PullRequest asks for one file's new version, conditional on the puller's
// current vector: the server ships data only if its version dominates
// LocalVV.  HasLocal false means the puller stores no copy (ship
// unconditionally).
type PullRequest struct {
	Dir      []ids.FileID
	File     ids.FileID
	LocalVV  vv.Vector
	HasLocal bool
}

// PullResult is the per-entry answer to a PullRequest.
type PullResult struct {
	Status   PullStatus
	Data     []byte    // PullData only
	Aux      Aux       // PullData (install attributes) and PullIsDir (kind)
	Size     uint64    // PullData only
	RemoteVV vv.Vector // PullConcurrent only
	Err      error     // PullError only

	// Manifest is the serving replica's block manifest of exactly the shipped
	// version (PullData only): taken from its sealed sidecar, or computed
	// from the bytes it read when the seal is stale.  Receivers verify the
	// payload against it before installing, so damage in flight — or a
	// serving path whose verification was bypassed — is rejected rather than
	// committed.
	Manifest *BlockManifest

	// A delta answer (to a pull that advertised holdings) carries no Data:
	// only the blocks absent from the advertisement travel, in Missing, and
	// the puller reassembles the version in InstallPulled.
	Missing []Block
}

func (l *Layer) pullOne(req *PullRequest) PullResult {
	st, err := l.FileInfo(req.Dir, req.File)
	if err != nil {
		if errors.Is(err, ErrNotStored) {
			return PullResult{Status: PullNotStored}
		}
		return PullResult{Status: PullError, Err: err}
	}
	if st.Aux.Type.IsDir() {
		return PullResult{Status: PullIsDir, Aux: st.Aux}
	}
	if req.HasLocal {
		switch req.LocalVV.Compare(st.Aux.VV) {
		case vv.Dominated:
			// Remote (this side) dominates: ship.
		case vv.Concurrent:
			return PullResult{Status: PullConcurrent, RemoteVV: st.Aux.VV.Clone()}
		default:
			return PullResult{Status: PullStale}
		}
	}
	// Ship the version that exists NOW: FileData re-reads the attributes
	// with the data, so a file that advanced since the comparison above is
	// shipped whole under its own (still dominating) vector.
	data, dst, m, err := l.readVerified(req.Dir, req.File)
	if err != nil {
		if errors.Is(err, ErrNotStored) {
			return PullResult{Status: PullNotStored}
		}
		return PullResult{Status: PullError, Err: err}
	}
	if m == nil {
		m = ComputeManifest(data) // stale seal: vouch for the bytes as read
	}
	return PullResult{Status: PullData, Data: data, Aux: dst.Aux, Size: dst.Size, Manifest: m}
}

// A pull may advertise the block addresses the puller already holds (its
// pool, fed by EnsureBlocks from ANY local file — cross-file dedup).  The
// serving side then answers PullData entries with the version's manifest plus
// only the blocks absent from the advertisement, and the puller reassembles
// the full version from local pool blocks + received blocks before running
// the exact same commit a whole-file install uses.  An append-one-block update
// or a metadata touch therefore ships O(delta) bytes instead of O(file), and a
// pass where the puller already dominates still ships zero data bytes.

// ErrMissingBlock reports a delta install that could not be assembled: the
// manifest references a block that was neither advertised-and-held locally
// nor shipped.  It is TRANSIENT — the puller's pool may have changed between
// advertisement and install (eviction, corruption) — so the entry retries
// under backoff and the next advertisement no longer claims the block.
var ErrMissingBlock error = transientError("physical: delta install needs a block neither held locally nor shipped")

// IsMissingBlock reports whether err is the retriable missing-block refusal
// of a delta install.
func IsMissingBlock(err error) bool { return errors.Is(err, ErrMissingBlock) }

// PullBatchDelta answers a batch of conditional pull requests against this
// replica.  With no advertisement (have is empty) a version that must ship
// travels whole, as Data beside its Manifest; with one it travels as
// (Manifest, Missing blocks) against the advertised holdings.  Serving never
// writes to this replica's own store.  Failures are strictly per-entry
// (PullError); the call itself never fails, so one unreadable file cannot
// starve the rest of a batch.
func (l *Layer) PullBatchDelta(reqs []PullRequest, have []BlockAddr) ([]PullResult, error) {
	out := make([]PullResult, len(reqs))
	for i := range reqs {
		out[i] = l.pullOne(&reqs[i])
	}
	if len(have) == 0 {
		return out, nil
	}
	haveSet := make(map[BlockAddr]bool, len(have))
	for _, a := range have {
		haveSet[a] = true
	}
	var shipped, shippedBytes uint64
	for i := range out {
		r := &out[i]
		if r.Status != PullData {
			continue
		}
		sent := make(map[BlockAddr]bool)
		for bi, addr := range r.Manifest.Blocks {
			if haveSet[addr] || sent[addr] {
				continue
			}
			b := blockAt(r.Data, bi)
			r.Missing = append(r.Missing, Block{Addr: addr, Data: b})
			sent[addr] = true
			shipped++
			shippedBytes += uint64(len(b))
		}
		r.Data = nil
	}
	l.mu.Lock()
	l.bstats.BlocksShipped += shipped
	l.bstats.BytesShipped += shippedBytes
	l.mu.Unlock()
	return out, nil
}
