package physical

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
	"repro/internal/vv"
	"repro/internal/wire"
)

// Ficus contains a single-file atomic commit service to support file update
// propagation (paper §3.2): "A shadow file replica is used to hold the new
// version until it is completely propagated, and then the shadow atomically
// replaces the original by changing a low-level directory reference.  If a
// crash occurs before the shadow substitution, the original replica is
// retained during recovery and the shadow discarded."
//
// This file is that service: atomicReplace is the commit, settleShadow the
// recovery rule, and Recover the one mount-time walk that applies the rule
// everywhere.  Every durable file the layer replaces as a whole — file data,
// an aux member resealed under its own vector, a compacted directory contents
// file, the volume metadata — goes through them; nothing is replaced by
// truncate-then-write.  What is written in place is storage no finished file
// depends on yet (writeFresh, writeAuxFile), a directory's record appended at
// its end (commitDirLocked), one block — an aux header — or, by an update
// under a new vector, the aux's current seal, whose every torn prefix the
// seal rule makes merely unverifiable (resealInPlace), and then, by a local
// update, the file's own data under the seal that made stale.

// atomicReplace commits data as dir/name: the complete image is written to
// a shadow beside name, and one rename substitutes it for the original.
func atomicReplace(dir vnode.Vnode, name string, data []byte) error {
	shadow := name + suffixShadow
	f, err := dir.Create(shadow, false)
	if err != nil {
		return err
	}
	if err := vnode.WriteFile(f, data); err != nil {
		return err
	}
	return dir.Rename(shadow, dir, name)
}

// writeFresh writes data in place as dir/name, a member of storage made aux-last
// (attr-last): until that lands Recover disposes of it, so a shadow saves nothing.
// A name that exists after all (a leftover, maybe a shared link) is replaced.
func writeFresh(dir vnode.Vnode, name string, data []byte) error {
	f, err := dir.Create(name, true)
	if vnode.AsErrno(err) == vnode.EEXIST {
		return atomicReplace(dir, name, data)
	} else if err != nil || len(data) == 0 {
		return err
	}
	_, err = f.WriteAt(data, 0)
	return err
}

// shadowBase reports whether name is a commit shadow, and of which file.
func shadowBase(name string) (string, bool) { return strings.CutSuffix(name, suffixShadow) }

// settleShadow applies the recovery rule to one leftover shadow, of base, in
// dir.  Original intact: the crash came before the substitution, the shadow
// may be torn, discard it.  Original gone: the crash landed inside the
// rename, which only begins once the shadow is complete, so promote it.  (A
// shadow of a file that never existed is promoted too, torn or not; every
// format committed this way is either strictly decoded or verified by
// content address before it is trusted.)
func settleShadow(dir vnode.Vnode, shadow, base string) (promoted bool, err error) {
	if _, err := dir.Lookup(base); err == nil {
		return false, dir.Remove(shadow)
	} else if vnode.AsErrno(err) != vnode.ENOENT {
		return false, err
	}
	return true, dir.Rename(shadow, dir, base)
}

// settleDir settles every leftover shadow among dir's entries ents,
// returning the names of dir's surviving non-directory members.
func settleDir(dir vnode.Vnode, ents []vnode.Dirent) (names []string, err error) {
	for _, e := range ents {
		if e.Type == vnode.VDir {
			continue
		}
		base, isShadow := shadowBase(e.Name)
		if !isShadow {
			names = append(names, e.Name)
			continue
		}
		promoted, err := settleShadow(dir, e.Name, base)
		if err != nil {
			return nil, err
		}
		if promoted {
			names = append(names, base)
		}
	}
	return names, nil
}

// walkContainers calls visit, with the container's entries, on cont and on
// every directory container beneath it that visit left in place.
func walkContainers(cont vnode.Vnode, visit func(vnode.Vnode, []vnode.Dirent) error) error {
	ents, err := cont.Readdir()
	if err != nil {
		return err
	}
	if err := visit(cont, ents); err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type != vnode.VDir || !strings.HasPrefix(e.Name, prefixDir) {
			continue
		}
		sub, err := cont.Lookup(e.Name)
		if vnode.AsErrno(err) == vnode.ENOENT {
			continue // visit removed it
		} else if err != nil {
			return err
		}
		if err := walkContainers(sub, visit); err != nil {
			return err
		}
	}
	return nil
}

// unfinished reports whether err, from an aux read, says the aux was never
// written.  Storage is created aux-last — a data file before its aux, a
// container's contents file before its attr — so what an absent or empty aux
// belongs to never finished materialising.
func unfinished(err error) bool {
	return errors.Is(err, ErrNotStored) || vnode.AsErrno(err) == vnode.ENOENT
}

// alsoLinkedFrom returns the other store directory that holds sub, a child
// container of c, under the same name — the one sub's ".." still points to —
// or nil when c is sub's only parent.
func alsoLinkedFrom(c, sub vnode.Vnode, name string) vnode.Vnode {
	up, err := sub.Lookup("..")
	if err != nil || up.Handle() == c.Handle() {
		return nil
	}
	if twin, err := up.Lookup(name); err != nil || twin.Handle() != sub.Handle() {
		return nil
	}
	return up
}

// memberFID parses a container member name as a file's data or aux.
func memberFID(name string) (ids.FileID, bool) {
	if name == "" || !strings.Contains(prefixData+prefixAux, name[:1]) {
		return ids.FileID{}, false
	}
	fid, err := ids.ParseFileID(name[1:])
	return fid, err == nil
}

// Recover is the mount-time crash recovery, run once from Open: one walk that
// settles every leftover shadow — at the store root (meta) and in every
// directory container — and then brings each container's storage in line with
// its entries by the rules the running layer maintains it with.  Per file
// with members in the container: a copy without an aux never finished
// materialising and is dropped; a copy still hard-linked from another
// container (a cross-directory rename was cut between its two commits) is
// given its own members; and settleChildLocked then reclaims it if no live
// entry names it and corrects its link count if one does.  A seal that does
// not decode needs no rule: it vouches for nothing, and the scrubber
// reseals.  Per child container: one also linked from the container its ".."
// points to loses this second link, and one that no entry, live or
// tombstone, names, or that never got its attr, is removed.  Each reclaim is
// safe because every operation creates storage before the entry that names
// it and removes it after the entry that stops naming it.
func (l *Layer) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The walk rewrites the store beneath both caches.
	l.conts.Flush()
	l.dirs.Flush()
	ents, err := l.root.Readdir()
	if err != nil {
		return err
	}
	if _, err := settleDir(l.root, ents); err != nil {
		return err
	}
	cont, err := l.rootContainer()
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			// A freshly formatted store that failed before creating the root
			// container has nothing to recover.
			return nil
		}
		return err
	}
	return walkContainers(cont, l.recoverContainerLocked)
}

func (l *Layer) recoverContainerLocked(c vnode.Vnode, ents []vnode.Dirent) error {
	names, err := settleDir(c, ents)
	if err != nil {
		return err
	}
	entries, _, err := l.readDirFileLocked(c)
	if err != nil {
		return nil // nothing here can be judged without the entries; Check reports
	}
	seen := make(map[ids.FileID]bool)
	for _, name := range names {
		fid, ok := memberFID(name)
		if !ok || seen[fid] {
			continue // Check reports unparsable names; leave for inspection
		}
		seen[fid] = true
		if _, _, err := readAuxFile(c, memberName(prefixAux, fid)); unfinished(err) {
			if err := l.removeStorageLocked(c, fid); err != nil {
				return err
			}
			continue
		}
		if err := l.unshareLocked(c, fid); err != nil {
			return err
		}
		if err := l.settleChildLocked(c, entries, fid); err != nil {
			return err
		}
	}
	for _, e := range ents {
		fid, err := ids.ParseFileID(strings.TrimPrefix(e.Name, prefixDir))
		if e.Type != vnode.VDir || err != nil {
			continue
		}
		sub, err := c.Lookup(e.Name)
		if err != nil {
			return err
		}
		if home := alsoLinkedFrom(c, sub, e.Name); home != nil {
			// The store move of a cross-directory rename was cut between its
			// two directory slots (the substrate adds the new name before it
			// drops the old, and moves ".." last): drop this second link,
			// leaving the container where the source's entry still names it.
			if err := c.Rename(e.Name, home, e.Name); err != nil {
				return err
			}
		} else if _, _, err := readAuxFile(sub, dirAttrName); countAnyRefs(entries, fid) == 0 || unfinished(err) {
			if err := removeTree(c, e.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// InstallFileVersion atomically replaces the local replica of file fid in
// directory dirPath with data, setting its version vector to newVV (the
// caller — reconciliation, or a conflict resolution — has already decided
// that the new version dominates, or has merged vectors).  If the file is
// not stored locally, storage is created: this is also how a replica
// acquires its first copy of a file during subtree reconciliation.  The
// bytes are local (a conflict resolution, a test), so the manifest they are
// installed under is computed here.
func (l *Layer) InstallFileVersion(dirPath []ids.FileID, fid ids.FileID, kind Kind, data []byte, newVV vv.Vector, nlink uint32) error {
	return l.InstallPulled(dirPath, fid, &PullResult{Status: PullData, Data: data, Manifest: ComputeManifest(data),
		Aux: Aux{Type: kind, Nlink: nlink, VV: newVV}}, nil)
}

// InstallPulled installs the version a pull answered with (r.Status is
// PullData), whole-file or delta alike; base is the DeltaBase the pull
// advertised (nil when it advertised nothing).  r.Manifest is the serving
// replica's word for exactly this version, and nothing touches disk unless
// the bytes agree with it: a whole-file answer's Data is verified block by
// block; a delta answer (Data nil) is assembled in one buffer from the
// shipped blocks, each of which must hash to its address, plus the blocks it
// reuses, each read back from a base file into its slot and checked against
// that file's seal (baseBlockLocked).  A mismatch (damage in flight, or
// a serving replica whose own verification was bypassed) is rejected with
// ErrCorrupt and, under FICUS_INVARIANTS=1, is an invariant violation.  An
// answer without a manifest has nothing to be verified against and is refused
// the same way.  (An empty version is the same answer either way and is
// handled as a delta.)  Once assembled, both answer shapes run the same
// commit.  The assembly buffer is lent by wire's pool and goes back once the
// commit has written it: the store copies every write into its own cache.
// Nothing of r is kept; its Missing is left ordered by address.
func (l *Layer) InstallPulled(dirPath []ids.FileID, fid ids.FileID, r *PullResult, base DeltaBase) error {
	m, data := r.Manifest, r.Data
	if m == nil {
		return fmt.Errorf("%w: install of %s: no manifest to verify the version against", ErrCorrupt, fid)
	}
	if !m.wellFormed() {
		return fmt.Errorf("%w: install of %s: manifest has %d blocks for length %d", ErrCorrupt, fid, len(m.Blocks), m.Length)
	}
	for i := range r.Missing {
		if b := &r.Missing[i]; HashBlock(b.Data) != b.Addr {
			return rejectInstall(fid, "shipped block fails its address %s", b.Addr)
		}
	}
	slices.SortFunc(r.Missing, func(a, b Block) int { return compareAddrs(a.Addr, b.Addr) })
	if data != nil && !m.Verify(data) {
		return rejectInstall(fid, "payload (%d bytes) does not match the shipped manifest (length %d)", len(data), m.Length)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cont, err := l.containerOf(dirPath)
	if err != nil {
		return err
	}
	var reused, reusedBytes uint64
	if data == nil {
		// Assemble the full version in one buffer: shipped blocks win (they
		// are the bytes the server actually sent); everything else is read
		// from the base straight into its slot.  Each block must also have
		// the size its position implies, or the sealed addresses would not be
		// those of the file's 4 KiB chunks.  The buffer is taken only once
		// every block the manifest names is at hand.
		for _, addr := range m.Blocks {
			if _, based := base[addr]; !based && shipped(r.Missing, addr) == nil {
				return fmt.Errorf("%w (file %s, block %s)", ErrMissingBlock, fid, addr)
			}
		}
		data = wire.GetBuf(int(m.Length))[:m.Length]
		defer wire.PutBuf(data)
		held := make(map[ids.FileID]heldVersion)
		for i, addr := range m.Blocks {
			slot := data[i*ChecksumBlockSize:][:blockLen(m.Length, i)]
			if b := shipped(r.Missing, addr); b != nil {
				if len(b.Data) != len(slot) {
					return rejectInstall(fid, "block %d is %d bytes, manifest position needs %d", i, len(b.Data), len(slot))
				}
				copy(slot, b.Data)
				continue
			}
			if !l.baseBlockLocked(base, addr, slot, held) {
				return fmt.Errorf("%w (file %s, block %s)", ErrMissingBlock, fid, addr)
			}
			reused++
			reusedBytes += uint64(len(slot))
		}
	}
	if err := l.commitFileVersionLocked(cont, fid, &r.Aux, data, m); err != nil {
		return err
	}
	l.bstats.BlocksReused += reused
	l.bstats.BytesSaved += reusedBytes
	return nil
}

// shipped finds the block a delta answer shipped for addr in missing, which
// is ordered by address, nil when it shipped none.
func shipped(missing []Block, addr BlockAddr) *Block {
	i, found := slices.BinarySearchFunc(missing, addr, func(b Block, a BlockAddr) int { return compareAddrs(b.Addr, a) })
	if !found {
		return nil
	}
	return &missing[i]
}

// rejectInstall refuses a pulled version whose bytes disagree with the
// manifest shipped beside them.
func rejectInstall(fid ids.FileID, format string, args ...any) error {
	why := fmt.Sprintf(format, args...)
	invariant.Checkf(false, "physical: install of %s rejected: %s", fid, why)
	return fmt.Errorf("%w: install of %s rejected (%s)", ErrCorrupt, fid, why)
}

// commitFileVersionLocked is the single-file atomic commit sequence every
// install lands in once its payload is verified and fully assembled; m is
// data's manifest.  Caller holds l.mu.
func (l *Layer) commitFileVersionLocked(cont vnode.Vnode, fid ids.FileID, attrs *Aux, data []byte, m *BlockManifest) error {
	name := memberName(prefixAux, fid)
	aux := Aux{Type: attrs.Type, Nlink: max(attrs.Nlink, 1), VV: attrs.VV}
	af, old, err := l.fileAuxLocked(cont, name)
	// Per-replica counter monotonicity: the caller has decided the new
	// vector dominates (or is a conflict resolution merged+bumped above)
	// the stored one, so no component — in particular not our own update
	// counter, which only we originate — may move backwards.
	if invariant.Enabled() && err == nil {
		invariant.Checkf(attrs.VV.DominatesOrEqual(old.aux.VV),
			"physical: installing version vector %s that does not dominate stored %s for file %s (replica %d counter would regress)",
			attrs.VV, old.aux.VV, fid, l.replica)
	}
	// 1. Over a stored copy whose header holds another vector, the new version
	// is written in place (rewriteAuxLocked): its seal in the aux's tail, stale
	// until the header lands, so every crash window in between reads as
	// "unverifiable" — the scrubber reseals — never as a false mismatch; 2. the
	// complete new version atomically substituted for the original; 3. the new
	// vector over the header.  A crash between 2 and 3 leaves new data under the
	// old vector; the next propagation re-pulls and re-installs — safe because
	// installation is idempotent.
	if err == nil && !old.aux.VV.Equal(aux.VV) {
		err = l.rewriteAuxLocked(af, old, &aux, m, func() error {
			return atomicReplace(cont, memberName(prefixData, fid), data)
		})
	} else {
		// A first copy (no aux yet) is written in place: Recover drops it until
		// its aux lands.  Otherwise — the vector the header already holds (a
		// repair), a header that does not decode — data, then aux and seal as
		// one whole member, which no seal may be written under in place.
		put := atomicReplace
		if unfinished(err) {
			put = writeFresh
		}
		if err = put(cont, memberName(prefixData, fid), data); err == nil {
			err = writeAuxFile(put, cont, name, &aux, m)
		}
	}
	if err != nil {
		return err
	}
	// A verified install over a quarantined replica is its repair.
	l.clearQuarantineLocked(fid, true)
	l.settleConflictsLocked(fid, aux.VV)
	return nil
}
