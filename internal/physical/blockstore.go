package physical

// Content-addressed block pool: the storage half of delta propagation.
//
// Every file version's sidecar (sidecar.go) lists the content address of
// each of its ChecksumBlockSize chunks.  The chunks of POOLED versions also
// live, once each, in a per-store block pool shared by every file of the
// volume replica.  The data file "F<fid>" remains the canonical copy; the
// pool is a derived index that lets the wire protocol ship only the blocks
// a peer does not already hold, from ANY local file — cross-file dedup.
//
// The pool is a UFS directory ("blocks") at the store root, beside the meta
// file and the nvcj journal, invisible to the Check container walk.  Each
// block is a file named by its 32-hex-digit address and committed by
// atomicReplace, so a torn write can never leave a partially written block
// under a name anything references.
//
// Refcounts are in-memory only (blockRefs: pool block -> number of pooled
// sidecars referencing it), rebuilt on every Open by Recover.  The commit
// order makes the invariant "every block a pooled sidecar names is present
// in the pool" crash-proof: blocks land in the pool BEFORE the sidecar that
// references them is sealed, so a crash can only leave unreferenced blocks —
// reclaimed at the next mount — never a dangling reference.  A block whose
// refcount drops to zero is reclaimed eagerly.  Local writes and whole-file
// installs seal unpooled: they put nothing into the pool, and only release
// what the sidecar they replace held.  EnsureBlocks and delta installs pool.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/vnode"
)

const poolDirName = "blocks" // pool directory name at the store root

// parseBlockName parses a pool file name back into an address.
func parseBlockName(name string) (BlockAddr, bool) {
	var a BlockAddr
	if len(name) != 2*BlockAddrSize {
		return a, false
	}
	if _, err := hex.Decode(a[:], []byte(name)); err != nil {
		return a, false
	}
	return a, true
}

func addrLess(a, b BlockAddr) bool { return bytes.Compare(a[:], b[:]) < 0 }

// Block pairs an address with its content: the wire unit of a delta pull.
type Block struct {
	Addr BlockAddr
	Data []byte
}

// BlockStats counts the block subsystem's work on one volume replica.
// PoolBlocks/PoolBytes are gauges; the rest are cumulative.
type BlockStats struct {
	PoolBlocks       uint64 // blocks currently in the pool
	PoolBytes        uint64 // bytes currently in the pool
	ManifestsSealed  uint64 // pooled sidecars committed (install- or index-time)
	OrphansReclaimed uint64 // unreferenced pool files removed at mount
	BadBlocks        uint64 // pool blocks that failed their address on read
	BlocksShipped    uint64 // blocks this replica shipped because the puller lacked them
	BlocksReused     uint64 // blocks delta installs assembled from the local pool
	BytesShipped     uint64 // payload bytes of shipped blocks
	BytesSaved       uint64 // payload bytes delta installs did NOT pull over the wire
}

// Add accumulates (aggregation across layers and hosts).
func (s *BlockStats) Add(t BlockStats) {
	s.PoolBlocks += t.PoolBlocks
	s.PoolBytes += t.PoolBytes
	s.ManifestsSealed += t.ManifestsSealed
	s.OrphansReclaimed += t.OrphansReclaimed
	s.BadBlocks += t.BadBlocks
	s.BlocksShipped += t.BlocksShipped
	s.BlocksReused += t.BlocksReused
	s.BytesShipped += t.BytesShipped
	s.BytesSaved += t.BytesSaved
}

// String renders the stats compactly.
func (s BlockStats) String() string {
	return fmt.Sprintf("pool=%d/%dB sealed=%d orphans=%d bad=%d shipped=%d/%dB reused=%d saved=%dB",
		s.PoolBlocks, s.PoolBytes, s.ManifestsSealed, s.OrphansReclaimed, s.BadBlocks,
		s.BlocksShipped, s.BytesShipped, s.BlocksReused, s.BytesSaved)
}

// BlockStats returns a snapshot of this volume replica's block counters.
func (l *Layer) BlockStats() BlockStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bstats
}

// ---- pool ---------------------------------------------------------------

// poolLocked returns the pool directory; create says whether to make it on
// first use.
func (l *Layer) poolLocked(create bool) (vnode.Vnode, error) {
	if l.pool != nil {
		return l.pool, nil
	}
	p, err := l.root.Lookup(poolDirName)
	if create && vnode.AsErrno(err) == vnode.ENOENT {
		p, err = l.root.Mkdir(poolDirName)
	}
	if err != nil {
		return nil, err
	}
	l.pool = p
	return p, nil
}

// openPoolLocked is Recover's pass over the pool: it settles leftover block
// shadows, discards names that are no address, resets the gauges, and
// returns the set of blocks present.
func (l *Layer) openPoolLocked() (map[BlockAddr]bool, error) {
	l.pool, l.bstats.PoolBlocks, l.bstats.PoolBytes = nil, 0, 0
	pool, err := l.poolLocked(false)
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return nil, nil // never used the block layer; nothing to rebuild
		}
		return nil, err
	}
	ents, err := pool.Readdir()
	if err != nil {
		return nil, err
	}
	names, discarded, err := settleDir(pool, ents)
	if err != nil {
		return nil, err
	}
	l.bstats.OrphansReclaimed += uint64(discarded)
	present := make(map[BlockAddr]bool, len(names))
	for _, name := range names {
		addr, ok := parseBlockName(name)
		if !ok {
			if err := pool.Remove(name); err != nil {
				return nil, err
			}
			l.bstats.OrphansReclaimed++
			continue
		}
		present[addr] = true
		if f, err := pool.Lookup(name); err == nil {
			if a, err := f.Getattr(); err == nil {
				l.bstats.PoolBlocks++
				l.bstats.PoolBytes += a.Size
			}
		}
	}
	return present, nil
}

// poolPutLocked commits one block under its address; a block already
// present is left untouched (content addressing makes the bytes identical
// by construction).
func (l *Layer) poolPutLocked(addr BlockAddr, data []byte) error {
	pool, err := l.poolLocked(true)
	if err != nil {
		return err
	}
	name := addr.String()
	if _, err := pool.Lookup(name); err == nil {
		return nil
	} else if vnode.AsErrno(err) != vnode.ENOENT {
		return err
	}
	if err := atomicReplace(pool, name, data); err != nil {
		return err
	}
	l.bstats.PoolBlocks++
	l.bstats.PoolBytes += uint64(len(data))
	return nil
}

// poolGetLocked reads one block and verifies it against its address.  A
// missing or unreadable block answers (nil, false); a block whose content
// no longer hashes to its name is EVICTED — and every sidecar referencing
// it demoted to unpooled — and also answers false, so at-rest pool
// corruption degrades to re-shipping the block.
func (l *Layer) poolGetLocked(addr BlockAddr) ([]byte, bool) {
	pool, err := l.poolLocked(false)
	if err != nil {
		return nil, false
	}
	f, err := pool.Lookup(addr.String())
	if err != nil {
		return nil, false
	}
	data, err := vnode.ReadFile(f)
	if err != nil {
		return nil, false
	}
	if HashBlock(data) != addr {
		l.evictBadBlockLocked(addr)
		return nil, false
	}
	return data, true
}

// poolHasLocked reports whether the pool stores addr (no content check).
func (l *Layer) poolHasLocked(addr BlockAddr) bool {
	pool, err := l.poolLocked(false)
	if err != nil {
		return false
	}
	_, err = pool.Lookup(addr.String())
	return err == nil
}

// poolRemoveLocked deletes one block file, adjusting the gauges (a no-op
// when absent).
func (l *Layer) poolRemoveLocked(addr BlockAddr) {
	if l.pool == nil {
		return
	}
	f, err := l.pool.Lookup(addr.String())
	if err != nil {
		return
	}
	var size uint64
	if a, err := f.Getattr(); err == nil {
		size = a.Size
	}
	if err := l.pool.Remove(addr.String()); err == nil {
		l.bstats.PoolBlocks--
		l.bstats.PoolBytes -= size
	}
}

// ---- refcounts ----------------------------------------------------------

// refAddLocked records one sidecar reference per listed address.
func (l *Layer) refAddLocked(addrs []BlockAddr) {
	for _, a := range addrs {
		l.blockRefs[a]++
	}
}

// refDropLocked releases one sidecar reference per listed address; a block
// reaching zero references is reclaimed eagerly.
func (l *Layer) refDropLocked(addrs []BlockAddr) {
	for _, a := range addrs {
		if n := l.blockRefs[a] - 1; n > 0 {
			l.blockRefs[a] = n
		} else {
			delete(l.blockRefs, a)
			l.poolRemoveLocked(a)
		}
	}
}

// eachSidecarLocked calls fn for every decodable sidecar among cont's
// entries ents.
func (l *Layer) eachSidecarLocked(cont vnode.Vnode, ents []vnode.Dirent, fn func(fid ids.FileID, sc *sidecar)) {
	for _, e := range ents {
		if fid, ok := sidecarFID(e.Name); ok {
			if sc, err := readSidecar(l.root, cont, fid); err == nil {
				fn(fid, &sc)
			}
		}
	}
}

// evictBadBlockLocked handles a pool block whose content fails its address:
// the block file is removed and every sidecar referencing it is demoted to
// unpooled (its addresses still verify the canonical data file; the next
// EnsureBlocks or delta install pools the version again).
func (l *Layer) evictBadBlockLocked(addr BlockAddr) {
	l.bstats.BadBlocks++
	if root, err := l.rootContainer(); err == nil {
		// Best-effort: the store is already surfacing bad bytes; a sidecar
		// this fails to demote is reported by fsck and demoted by the next
		// mount's recovery.
		_ = walkContainers(root, func(cont vnode.Vnode, ents []vnode.Dirent) error {
			l.eachSidecarLocked(cont, ents, func(fid ids.FileID, sc *sidecar) {
				if sc.Pooled && slices.Contains(sc.Blocks, addr) {
					_ = l.sealLocked(cont, fid, sc.Sealed, &sc.BlockManifest, false) //ficusvet:ignore duraberr
				}
			})
			return nil
		})
	}
	delete(l.blockRefs, addr)
	l.poolRemoveLocked(addr)
}

// dropRefsInTreeLocked releases the pool references held by every sidecar
// in a container subtree that is about to be deleted wholesale (tombstone
// collection of a whole directory).
func (l *Layer) dropRefsInTreeLocked(cont vnode.Vnode) {
	_ = walkContainers(cont, func(c vnode.Vnode, ents []vnode.Dirent) error {
		l.eachSidecarLocked(c, ents, func(_ ids.FileID, sc *sidecar) {
			if sc.Pooled {
				l.refDropLocked(sc.Blocks)
			}
		})
		return nil
	})
}

// ---- indexing (the puller's Have set) -----------------------------------

// EnsureBlocks indexes fid's current local version into the block pool: the
// data is read (and verified when the sidecar vouches for it), its blocks
// are put into the pool, and the sidecar is resealed pooled under the aux
// vector.  A sidecar already pooled for the current version makes this a
// cheap no-op, so the propagation daemon can call it every pass.
// Quarantined or failing data is never indexed — corrupt bytes must not
// enter the pool under a valid address.
func (l *Layer) EnsureBlocks(dirPath []ids.FileID, fid ids.FileID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.isQuarantinedLocked(fid) {
		return fmt.Errorf("%w: file %s is quarantined", ErrCorrupt, fid)
	}
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	aux, err := readAuxFileFollow(l.root, cont, prefixAux+fid.String())
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return ErrNotStored
		}
		return err
	}
	sc, err := readSidecar(l.root, cont, fid)
	current := err == nil && sc.Sealed.Equal(aux.VV)
	if current && sc.Pooled {
		return nil // already indexed for this exact version
	}
	df, err := lookupFollow(l.root, cont, prefixData+fid.String())
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
	m := &sc.BlockManifest
	if !current {
		m = ComputeManifest(data)
	} else if !m.Verify(data) {
		l.quarantineLocked(dirPath, fid, aux.VV)
		return fmt.Errorf("%w: file %s failed verification while indexing blocks", ErrCorrupt, fid)
	}
	for i, addr := range m.Blocks {
		if err := l.poolPutLocked(addr, blockAt(data, i)); err != nil {
			return err
		}
	}
	return l.sealLocked(cont, fid, aux.VV, m, true)
}

// PoolAddrs lists every pool block address this replica holds, sorted, for
// the Have advertisement of a delta pull.
func (l *Layer) PoolAddrs() []BlockAddr {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]BlockAddr, 0, len(l.blockRefs))
	for a := range l.blockRefs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return addrLess(out[i], out[j]) })
	return out
}
