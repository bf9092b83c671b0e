package physical

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
	"repro/internal/wire"
)

// The conditional pull: the one way a replica learns a file version from a
// peer, whether a notification (update propagation), a periodic directory
// visit (reconciliation) or the restart rescan prompted it.  A pull of a
// quarantined copy is also its repair (quarantine.go).
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
	// copy); the answer carries the version for InstallPulled.
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
	Aux      Aux       // PullData (install attributes) and PullIsDir (kind)
	RemoteVV vv.Vector // PullConcurrent only
	Err      error     // PullError only

	// Manifest is the serving replica's block manifest of exactly the shipped
	// version (PullData only): taken from its current seal, or computed
	// from the bytes it read when the seal is stale.  Receivers verify the
	// payload against it before installing, so damage in flight — or a
	// serving path whose verification was bypassed — is rejected rather than
	// committed.
	Manifest *BlockManifest

	// Missing is the version's blocks absent from the pull's advertisement
	// (PullData only), in manifest order, each address once: every distinct
	// block when the pull advertised nothing.  The puller reassembles the
	// version from them and its own base in InstallPulled.
	Missing []Block

	// lent is the buffer wire's pool lent the serving layer to read the
	// answer's bytes into: Missing is a view of it.  Release returns it.  An
	// answer rebuilt from a message holds none.
	lent []byte
}

// Release returns the buffer a served answer's bytes were read into to wire's
// pool, once the answer has been encoded (the repl server) or installed
// (recon's pullAndApply): from then on Missing is a view of the pool's bytes,
// and nothing may read them (DESIGN.md §9.2).  A second Release of the same
// answer, or one of an answer that borrowed nothing, does nothing.
// An answer dropped without a Release leaves its buffer to the collector.
func (r *PullResult) Release() {
	if r.lent != nil {
		wire.PutBuf(r.lent)
		r.lent = nil
	}
}

// pullOne answers one pull request against ad, the pull's advertisement (which
// may list nothing).  The aux and its seal are read once, through the aux
// cache, under one hold of l.mu, so the answer is the one version stored now
// (it may have advanced since the puller last looked, and still dominates).
// A version that ships travels as its manifest plus the blocks ad lacks —
// every block when it lists nothing.  With a current seal only those blocks
// are read, each checked against its sealed address (readMissingLocked);
// with a stale one the version is read whole and its manifest computed from
// the bytes as read.
func (l *Layer) pullOne(req *PullRequest, ad *advert) PullResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(req.Dir)
	if err != nil {
		return pullFailed(err)
	}
	c, err := l.copyLocked(cont, membersOf(KFile, req.File))
	if vnode.AsErrno(err) == vnode.ENOENT {
		// Not a file here — it may be a child directory.
		daux, err := l.childDirAuxLocked(cont, req.File)
		if err != nil {
			return pullFailed(err)
		}
		return PullResult{Status: PullIsDir, Aux: daux}
	} else if err != nil {
		return pullFailed(err)
	}
	aux, seal, df := c.aux, c.seal, c.df
	if req.HasLocal {
		switch req.LocalVV.Compare(aux.VV) {
		case vv.Dominated:
			// Remote (this side) dominates: ship.
		case vv.Concurrent:
			return PullResult{Status: PullConcurrent, RemoteVV: aux.VV}
		default:
			return PullResult{Status: PullStale}
		}
	}
	if l.isQuarantinedLocked(req.File) {
		return pullFailed(errQuarantined(req.File))
	}
	r := PullResult{Status: PullData, Aux: aux}
	if seal != nil {
		r.Manifest = &seal.BlockManifest
		if r.Missing, r.lent, err = l.readMissingLocked(df, req.File, seal, ad.ships(r.Manifest)); err != nil {
			return pullFailed(err)
		}
	} else {
		// A stale seal vouches for nothing: vouch for the bytes as read.
		data, err := readWhole(df)
		if err != nil {
			return pullFailed(err)
		}
		r.Manifest, r.lent = ComputeManifest(data), data
		idx := ad.ships(r.Manifest)
		r.Missing = make([]Block, len(idx))
		for k, i := range idx {
			r.Missing[k] = Block{Addr: r.Manifest.Blocks[i], Data: blockAt(data, i)}
		}
	}
	if len(ad.have) > 0 {
		l.countShippedLocked(r.Missing)
	}
	return r
}

// readMissingLocked reads the blocks idx (ascending) of file fid's data member
// df, sealed by seal, into one buffer sized to them and lent by wire's pool,
// each run of consecutive blocks with one read, and checks each block against
// its sealed address; it returns the blocks and the buffer they are views of,
// which the caller owns until it returns it.  A member that is not the sealed
// length, or a block that fails its address, convicts the copy: it is
// quarantined and the read answers ErrCorrupt.  Blocks it does not read are
// not checked: they are the scrubber's to find.
func (l *Layer) readMissingLocked(df vnode.Vnode, fid ids.FileID, seal *sidecar, idx []int) ([]Block, []byte, error) {
	st, err := df.Getattr()
	if err != nil {
		return nil, nil, err
	}
	if st.Size != seal.Length {
		return nil, nil, l.convictLocked(fid)
	}
	size := 0
	for _, i := range idx {
		size += blockLen(seal.Length, i)
	}
	buf := wire.GetBuf(size)[:size]
	out := make([]Block, len(idx))
	off := 0
	for k := 0; k < len(idx); {
		run, n := k+1, blockLen(seal.Length, idx[k])
		for ; run < len(idx) && idx[run] == idx[run-1]+1; run++ {
			n += blockLen(seal.Length, idx[run])
		}
		if err := readBlock(df, buf[off:off+n], idx[k]); err != nil {
			wire.PutBuf(buf)
			return nil, nil, err
		}
		for ; k < run; k++ {
			i := idx[k]
			b := buf[off : off+blockLen(seal.Length, i) : off+blockLen(seal.Length, i)]
			if HashBlock(b) != seal.Blocks[i] {
				wire.PutBuf(buf)
				return nil, nil, l.convictLocked(fid)
			}
			out[k] = Block{Addr: seal.Blocks[i], Data: b}
			off += len(b)
		}
	}
	return out, buf, nil
}

// readWhole reads data member df whole, into a buffer lent by wire's pool,
// which the caller owns until it returns it.
func readWhole(df vnode.Vnode) ([]byte, error) {
	st, err := df.Getattr()
	if err != nil {
		return nil, err
	}
	data := wire.GetBuf(int(st.Size))[:st.Size]
	n, err := df.ReadAt(data, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		wire.PutBuf(data)
		return nil, err
	}
	return data[:n], nil
}

// countShippedLocked counts the blocks an answer to an advertisement ships.
func (l *Layer) countShippedLocked(blocks []Block) {
	for _, b := range blocks {
		l.bstats.BlocksShipped++
		l.bstats.BytesShipped += uint64(len(b.Data))
	}
}

// pullFailed is the answer to a request this replica could not serve.
func pullFailed(err error) PullResult {
	if errors.Is(err, ErrNotStored) {
		return PullResult{Status: PullNotStored}
	}
	return PullResult{Status: PullError, Err: err}
}

// advert is a pull's advertisement as the serving side reads it: the
// addresses the puller holds, sorted, and scratch for one answer's choice.
type advert struct {
	have []BlockAddr
	sent map[BlockAddr]bool // made by the first answer that ships
	idx  []int
}

// holds reports whether the advertisement lists addr.
func (a *advert) holds(addr BlockAddr) bool {
	_, found := slices.BinarySearchFunc(a.have, addr, compareAddrs)
	return found
}

// compareAddrs orders block addresses bytewise: the order of an advertisement.
func compareAddrs(a, b BlockAddr) int { return bytes.Compare(a[:], b[:]) }

// ships lists, in manifest order, the index of each block of m an answer
// ships: each address absent from the advertisement, once.  The list is
// scratch of a's, good until the next call.
func (a *advert) ships(m *BlockManifest) []int {
	if a.sent == nil {
		a.sent = make(map[BlockAddr]bool, len(m.Blocks))
	}
	clear(a.sent)
	a.idx = slices.Grow(a.idx[:0], len(m.Blocks))
	for i, addr := range m.Blocks {
		if !a.sent[addr] && !a.holds(addr) {
			a.sent[addr] = true
			a.idx = append(a.idx, i)
		}
	}
	return a.idx
}

// A pull may advertise block addresses the puller already holds.  The
// serving side answers every PullData entry with the version's manifest plus
// the blocks absent from the advertisement — all of them when it lists
// nothing — and the puller reassembles the full version from its base and the
// received blocks before it commits.  An append-one-block update or a
// metadata touch therefore ships O(delta) bytes instead of O(file), and a
// pass where the puller already dominates still ships zero data bytes.

// Block pairs an address with its content: the unit a pull answer ships.
type Block struct {
	Addr BlockAddr
	Data []byte
}

// DeltaBase is what one delta pull is assembled against: for each block
// address, where the sealed manifests of the requested files listed it when
// the request was built — in practice inside the versions the pull replaces.
// It is a value that lives for one pull; nothing about it is stored, so it
// may have gone stale by the time an answer arrives, and InstallPulled trusts
// none of it: every block reused is read back and checked against its
// holder's current seal at the moment of use.
//
// Each address keeps its first holder inline; the rare further holders (the
// same block inside another requested file) are chained behind it, in the
// order the request was built.
type DeltaBase map[BlockAddr]baseBlock

// baseFile is one file whose blocks a DeltaBase offers: fid in directory dir.
type baseFile struct {
	dir []ids.FileID
	fid ids.FileID
}

// baseBlock locates one holder of a base block: block number block of file.
// next is the address's next holder, nil for the last; the inline first
// holder also keeps last, the chain's last holder (nil while it is the only
// one).
type baseBlock struct {
	file       *baseFile
	block      int
	next, last *baseBlock
}

// offer records block i of f as a holder of addr: after the address's holders
// so far, and only once per file however often the block repeats inside it (a
// file's mention is then the chain's last).
func (b DeltaBase) offer(addr BlockAddr, f *baseFile, i int) {
	first, ok := b[addr]
	if !ok {
		b[addr] = baseBlock{file: f, block: i}
		return
	}
	tail := first.last
	if tail == nil {
		tail = &first
	}
	if tail.file.fid == f.fid {
		return
	}
	tail.next = &baseBlock{file: f, block: i}
	first.last = tail.next
	b[addr] = first
}

// PullRequestFor reads the local side of a pull of file fid in dirPath under
// one hold of the layer's lock: the request to send, and local, the vector of
// the local copy — nil when this replica stores none, and the request is
// unconditional.  So is the request for a quarantined copy, whose bytes are
// untrusted: even a peer holding the same version ships it.  With base
// non-nil, a file copy that is not quarantined and is sealed under its current
// vector offers its addresses to base; anything else offers none, and its
// version is replaced by whole blocks.  Only the aux member is read, through
// the aux cache, header and seal at once; nothing is written.  An error other
// than ErrNotStored is the entry's failure.
func (l *Layer) PullRequestFor(dirPath []ids.FileID, fid ids.FileID, base DeltaBase) (req PullRequest, local vv.Vector, err error) {
	req = PullRequest{Dir: dirPath, File: fid}
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return req, vv.Vector{}, storedOrNot(err)
	}
	c, err := l.copyLocked(cont, membersOf(KFile, fid))
	aux := c.aux
	if vnode.AsErrno(err) == vnode.ENOENT {
		aux, err = l.childDirAuxLocked(cont, fid)
	}
	if err != nil {
		return req, vv.Vector{}, storedOrNot(err)
	}
	if l.isQuarantinedLocked(fid) {
		return req, aux.VV, nil
	}
	req.LocalVV, req.HasLocal = aux.VV, true
	if base != nil && c.seal != nil {
		f := &baseFile{dir: dirPath, fid: fid}
		for i, addr := range c.seal.Blocks {
			base.offer(addr, f, i)
		}
	}
	return req, aux.VV, nil
}

// storedOrNot reports a copy that is not stored as no error: its pull asks
// unconditionally.
func storedOrNot(err error) error {
	if errors.Is(err, ErrNotStored) {
		return nil
	}
	return err
}

// Have lists the base's distinct addresses, sorted: the advertisement of the
// pull the base was built for.  An empty base advertises nothing, so every
// block of a shipped version travels.
func (b DeltaBase) Have() []BlockAddr {
	out := make([]BlockAddr, 0, len(b))
	for a := range b {
		out = append(out, a)
	}
	slices.SortFunc(out, compareAddrs)
	return out
}

// heldVersion is one base file as an install found it: its data member and
// the current seal its reused blocks are checked against.  The zero value is
// a holder that cannot serve.
type heldVersion struct {
	df vnode.Vnode
	m  *BlockManifest
}

// holderLocked looks base file fid in dirPath up for an install's read-back:
// its current seal, through the aux cache, and its data member, which must be
// the sealed length — one that is not convicts the copy.  A holder that is not
// stored, is quarantined or has no current seal cannot serve.
func (l *Layer) holderLocked(dirPath []ids.FileID, fid ids.FileID) heldVersion {
	if l.isQuarantinedLocked(fid) {
		return heldVersion{}
	}
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return heldVersion{}
	}
	c, err := l.copyLocked(cont, membersOf(KFile, fid))
	if err != nil || c.seal == nil {
		return heldVersion{}
	}
	if st, err := c.df.Getattr(); err != nil || st.Size != c.seal.Length {
		if err == nil {
			l.quarantineLocked(fid)
		}
		return heldVersion{}
	}
	return heldVersion{df: c.df, m: &c.seal.BlockManifest}
}

// baseBlockLocked fills dst with the block addressed addr, read back out of a
// base file that listed it.  Each holder is looked up once per install (held
// remembers it), and only the block itself is read, straight into dst, and
// hashed: it is used only if its holder's current seal still lists the address
// at the same place, for a block of dst's size, and the bytes read hash to it.
// A block that fails its address convicts its holder, which drops out of the
// next advertisement.  A holder rewritten, removed or quarantined since the
// base was built is simply a miss.
func (l *Layer) baseBlockLocked(base DeltaBase, addr BlockAddr, dst []byte, held map[ids.FileID]heldVersion) bool {
	first, ok := base[addr]
	if !ok {
		return false
	}
	for h := &first; h != nil; h = h.next {
		fid := h.file.fid
		v, seen := held[fid]
		if !seen {
			v = l.holderLocked(h.file.dir, fid)
			held[fid] = v
		}
		if v.df == nil || h.block >= len(v.m.Blocks) || v.m.Blocks[h.block] != addr || blockLen(v.m.Length, h.block) != len(dst) {
			continue
		}
		if err := readBlock(v.df, dst, h.block); err == nil && HashBlock(dst) == addr {
			return true
		} else if err == nil {
			l.quarantineLocked(fid)
		}
		held[fid] = heldVersion{}
	}
	return false
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

	BlocksShipped uint64 // blocks this replica shipped to pulls that advertised holdings
	BlocksReused  uint64 // blocks delta installs read back from their base
	BytesShipped  uint64 // payload bytes of those blocks
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
// replica; have is the addresses the puller advertises it holds.  A version that must ship
// travels as its Manifest plus the Missing blocks the advertisement lacks;
// an empty advertisement lacks every block.  Only answers to a non-empty one
// count as shipped in BlockStats.  Serving never writes to this replica's own
// store.  Failures are strictly per-entry (PullError); the call itself never
// fails, so one unreadable file cannot starve the rest of a batch.
func (l *Layer) PullBatchDelta(reqs []PullRequest, have []BlockAddr) ([]PullResult, error) {
	if !slices.IsSortedFunc(have, compareAddrs) { // not built by Have
		have = slices.Clone(have)
		slices.SortFunc(have, compareAddrs)
	}
	ad := &advert{have: have}
	out := make([]PullResult, len(reqs))
	for i := range reqs {
		out[i] = l.pullOne(&reqs[i], ad)
	}
	return out, nil
}
