package ufs

// Mount-time crash recovery.  A call writes its data and directory blocks
// first, then, once each at its end (stage.go), the blocks it allocated,
// its indirect blocks, its inode-table blocks and last its bitmaps.  So a
// crash can leave entries naming inodes not yet written, inodes and blocks
// the bitmaps do not show yet, bits of storage already let go, and link
// counts behind their names — never reachable data pointing at a block that
// does not hold its contents:
//
//   - a directory entry lands before the inode it names is initialized, so
//     a crash between the two leaves an entry naming a free inode;
//   - a block's contents (zeros for one nothing wrote) land before any
//     indirect block or inode points at it, and its bitmap bit after, so a
//     crash leaves referenced blocks marked free or, with the pointer not yet
//     written either, nothing at all;
//   - the remove/free paths detach directory entries before the inode is
//     zeroed and zero the inode before its bits are cleared, so a crash
//     leaves unreachable inodes or bits set for storage nothing uses — never
//     a live entry naming recycled storage; and a call never reuses what it
//     freed, because the bits are cleared only at its end.
//
// A directory moved to a new parent has its ".." rewritten after its old name
// is dropped, so a crash in between leaves a ".." naming the old parent.
//
// recoverLocked repairs exactly those states, in the same order fsck would:
// drop directory entries that point at free inodes, repoint a ".." at the
// directory that names it, reclaim inodes unreachable from the root, reset
// link counts to the surviving reference counts, and rebuild both allocation
// bitmaps from the inode table.  After it runs, Check reports a clean volume.
func (fs *FS) recoverLocked() error {
	// Pass 1: walk the tree from the root, dropping entries that name free
	// inodes and collecting reference counts and reachability, then repoint
	// every stale "..", moving the reference it counted.
	links := parentLinks{namedBy: make(map[Ino][]Ino)}
	linkRefs, reachable, err := fs.walkTreeLocked(func(dir Ino, e Dirent, din dinode) (bool, error) {
		if din.Type != TypeFree {
			links.see(dir, e, din)
			return true, nil
		}
		_, err := fs.dirRemoveLocked(dir, e.Name)
		return false, err
	})
	if err != nil {
		return err
	}
	for _, s := range links.stale() {
		if _, err := fs.dirRepointLocked(s.dir, "..", s.parent); err != nil {
			return err
		}
		linkRefs[s.up]--
		linkRefs[s.parent]++
	}

	// Pass 2: reclaim unreachable inodes, reset stale link counts, and
	// rebuild the inode bitmap from the table.  The clock resumes past every
	// stamp on the device, so no stamp is ever given out twice.
	for i := uint32(1); i < fs.sb.NInodes; i++ {
		ino := Ino(i)
		din, err := fs.ic.get(ino)
		if err != nil {
			return err
		}
		fs.clock = max(fs.clock, din.Mtime, din.Ctime)
		if din.Type != TypeFree {
			if !reachable[ino] {
				if err := fs.writeInodeLocked(ino, dinode{}); err != nil {
					return err
				}
				fs.ic.drop(ino)
				din = dinode{}
			} else if din.Nlink != linkRefs[ino] {
				din.Nlink = linkRefs[ino]
				if err := fs.writeInodeLocked(ino, din); err != nil {
					return err
				}
			}
		}
		want := din.Type != TypeFree
		used, err := fs.inoMap.test(i)
		if err != nil {
			return err
		}
		if used != want {
			if err := fs.inoMap.set(i, want); err != nil {
				return err
			}
		}
	}

	// Pass 3: rebuild the block bitmap from the surviving inodes' block
	// trees (leaked blocks lose their bits; blocks owned by an inode that
	// was mid-free at the crash get them back).
	refs := make(map[uint32]bool)
	for i := uint32(1); i < fs.sb.NInodes; i++ {
		din, err := fs.ic.get(Ino(i))
		if err != nil {
			return err
		}
		if din.Type == TypeFree {
			continue
		}
		if err := fs.walkBlocks(&din, func(bn uint32) { refs[bn] = true }); err != nil {
			return err
		}
	}
	for bn := fs.sb.DataStart; bn < fs.sb.NBlocks; bn++ {
		used, err := fs.blkMap.test(bn)
		if err != nil {
			return err
		}
		if used != refs[bn] {
			if err := fs.blkMap.set(bn, refs[bn]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recover runs crash recovery on a mounted filesystem (see recoverLocked).
// Mount invokes it automatically; it is exported so tests can re-run it.
func (fs *FS) Recover() (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	return fs.recoverLocked()
}
