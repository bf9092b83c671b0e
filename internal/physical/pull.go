package physical

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

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
	// version (PullData only): taken from its current seal, or computed
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

// A pull may advertise block addresses the puller already holds.  The
// serving side then answers PullData entries with the version's manifest plus
// only the blocks absent from the advertisement, and the puller reassembles
// the full version from its base + received blocks before running the exact
// same commit a whole-file install uses.  An append-one-block update or a
// metadata touch therefore ships O(delta) bytes instead of O(file), and a
// pass where the puller already dominates still ships zero data bytes.

// Block pairs an address with its content: the wire unit of a delta pull.
type Block struct {
	Addr BlockAddr
	Data []byte
}

// DeltaBase is what one delta pull is assembled against: for each block
// address, where the sealed manifests of the requested files listed it when
// the request was built — in practice inside the versions the pull replaces.
// It is a value that lives for one pull; nothing about it is stored, so it
// may have gone stale by the time an answer arrives, and InstallPulled trusts
// none of it: every holder is read back through the verified read at the
// moment of use.
type DeltaBase map[BlockAddr][]baseBlock

// baseBlock locates one holder of a base block: block number block of file
// fid in directory dir.
type baseBlock struct {
	dir   []ids.FileID
	fid   ids.FileID
	block int
}

// AddToBase offers fid's local version to base: its addresses join when the
// file has a local copy, is not quarantined and is sealed under its current
// aux vector.  Anything else adds nothing, and the version is replaced by
// whole blocks.  Only the aux member is read, through the aux cache; nothing
// is written.
func (l *Layer) AddToBase(base DeltaBase, dirPath []ids.FileID, fid ids.FileID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.isQuarantinedLocked(fid) {
		return
	}
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return
	}
	_, seal, err := l.fileAuxLocked(cont, prefixAux+fid.String(), true)
	if err != nil || seal == nil {
		return
	}
	for i, addr := range seal.Blocks {
		// One mention per file, however often the block repeats inside it.
		if hs := base[addr]; len(hs) == 0 || hs[len(hs)-1].fid != fid {
			base[addr] = append(hs, baseBlock{dir: dirPath, fid: fid, block: i})
		}
	}
}

// Have lists the base's distinct addresses, sorted: the advertisement of the
// pull the base was built for.  An empty base advertises nothing, which asks
// for whole-file answers.
func (b DeltaBase) Have() []BlockAddr {
	out := make([]BlockAddr, 0, len(b))
	for a := range b {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b BlockAddr) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// heldVersion is one base file as the verified read found it during an
// install: its bytes and the current seal they hash to.
type heldVersion struct {
	data []byte
	m    *BlockManifest
}

// baseBlockLocked reads the block addressed addr back out of a base file that
// listed it.  Each holder is read once per install (held remembers it, nil for
// one that cannot serve) through readVerifiedLocked, so a block is used only
// if its holder's bytes hash to the holder's current seal right now and that
// seal still lists the address at the same place; a holder failing its
// current seal is quarantined there, like every other failed verified read,
// and so drops out of the next advertisement.  A holder rewritten, removed or
// quarantined since the base was built is simply a miss.
func (l *Layer) baseBlockLocked(base DeltaBase, addr BlockAddr, held map[ids.FileID]*heldVersion) ([]byte, bool) {
	for _, h := range base[addr] {
		v, seen := held[h.fid]
		if !seen {
			if data, _, m, err := l.readVerifiedLocked(h.dir, h.fid); err == nil && m != nil {
				v = &heldVersion{data: data, m: m}
			}
			held[h.fid] = v
		}
		if v == nil {
			continue
		}
		if h.block < len(v.m.Blocks) && v.m.Blocks[h.block] == addr {
			return blockAt(v.data, h.block), true
		}
	}
	return nil, false
}

// ErrMissingBlock reports a delta install that could not be assembled: the
// manifest references a block that was neither shipped nor readable from the
// base.  It is TRANSIENT — a base file may have been rewritten, removed or
// quarantined between advertisement and install — so the entry retries under
// backoff and the next advertisement no longer claims the block.
var ErrMissingBlock error = transientError("physical: delta install needs a block neither held locally nor shipped")

// BlockStats counts delta propagation's work on one volume replica; every
// counter is cumulative.
type BlockStats struct {
	// PoolBlocks and ManifestsSealed counted the block pool, which no longer
	// exists.  Nothing writes them; they remain only because the frozen
	// bench/run.go reads them, for the next benchmark PR to delete.
	PoolBlocks      uint64
	ManifestsSealed uint64

	BlocksShipped uint64 // blocks this replica shipped because the puller lacked them
	BlocksReused  uint64 // blocks delta installs read back from their base
	BytesShipped  uint64 // payload bytes of shipped blocks
	BytesSaved    uint64 // payload bytes delta installs did NOT pull over the wire
}

// Add accumulates (aggregation across layers and hosts).
func (s *BlockStats) Add(t BlockStats) {
	s.BlocksShipped += t.BlocksShipped
	s.BlocksReused += t.BlocksReused
	s.BytesShipped += t.BytesShipped
	s.BytesSaved += t.BytesSaved
}

// String renders the stats compactly.
func (s BlockStats) String() string {
	return fmt.Sprintf("shipped=%d/%dB reused=%d saved=%dB", s.BlocksShipped, s.BytesShipped, s.BlocksReused, s.BytesSaved)
}

// BlockStats returns a snapshot of this volume replica's delta counters.
func (l *Layer) BlockStats() BlockStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bstats
}

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
