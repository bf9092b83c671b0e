package ufs

import "encoding/binary"

// Dirent is one directory entry as returned by Readdir.
type Dirent struct {
	Name string
	Ino  Ino
}

// Directory slot layout (dirSlotSize bytes):
//
//	off 0  ino      uint32 (0 = free slot)
//	off 4  nameLen  uint8
//	off 5  name     [MaxNameLen]byte
//
// Slots never span blocks (dirSlotsPerBlock per block; the block tail is
// unused), so one directory data page read resolves all names in it.

// decodeSlot returns the slot's inode and its name, in place: a scan passes
// every slot, and only a caller that keeps a name makes a string of it.
func decodeSlot(p []byte) (Ino, []byte) {
	ino := Ino(binary.BigEndian.Uint32(p))
	if ino == 0 {
		return 0, nil
	}
	return ino, p[5 : 5+int(p[4])]
}

func encodeSlot(p []byte, ino Ino, name string) {
	binary.BigEndian.PutUint32(p, uint32(ino))
	p[4] = byte(len(name))
	copy(p[5:], name)
	// Zero the remainder so stale names never resurface.
	for i := 5 + len(name); i < dirSlotSize; i++ {
		p[i] = 0
	}
}

// slotAddr converts a slot index to (file block, in-block offset).
func slotAddr(idx uint64) (fbn uint64, off int) {
	return idx / dirSlotsPerBlock, int(idx%dirSlotsPerBlock) * dirSlotSize
}

// dirInitLocked writes "." and ".." into a fresh directory.
func (fs *FS) dirInitLocked(dir, parent Ino) error {
	din, err := fs.readInodeLocked(dir)
	if err != nil {
		return err
	}
	if din.Type != TypeDir {
		return ErrNotDir
	}
	blk := fs.bc.clone(zeroBlock)
	encodeSlot(blk[0:], dir, ".")
	encodeSlot(blk[dirSlotSize:], parent, "..")
	bn, err := fs.blockmapLocked(&din, 0, true)
	if err != nil {
		return err
	}
	if err := fs.st.write(bn, blk); err != nil {
		return err
	}
	din.Size = 2 * dirSlotSize
	din.Nlink = 2 // "." and the parent's entry (counted when linked in)
	din.Mtime = fs.tick()
	return fs.writeInodeLocked(dir, din)
}

// dirScanLocked iterates allocated slots, calling fn with (slotIndex, ino,
// name); fn returns true to stop early.  name is the slot's bytes, lent for
// the call.
func (fs *FS) dirScanLocked(dir Ino, fn func(idx uint64, ino Ino, name []byte) bool) error {
	din, err := fs.readInodeLocked(dir)
	if err != nil {
		return err
	}
	if din.Type != TypeDir {
		return ErrNotDir
	}
	nSlots := din.Size / dirSlotSize
	for fbn := uint64(0); fbn*dirSlotsPerBlock < nSlots; fbn++ {
		bn, err := fs.blockmapLocked(&din, fbn, false)
		if err != nil {
			return err
		}
		var blk []byte
		if bn != 0 {
			blk, err = fs.st.read(bn)
			if err != nil {
				return err
			}
		} else {
			blk = zeroBlock
		}
		for s := 0; s < dirSlotsPerBlock; s++ {
			idx := fbn*dirSlotsPerBlock + uint64(s)
			if idx >= nSlots {
				return nil
			}
			ino, name := decodeSlot(blk[s*dirSlotSize:])
			if ino == 0 {
				continue
			}
			if fn(idx, ino, name) {
				return nil
			}
		}
	}
	return nil
}

// dirLookupLocked finds name in dir (".", ".." included), using the DNLC.
func (fs *FS) dirLookupLocked(dir Ino, name string) (Ino, error) {
	if child, ok := fs.dnlc.get(ncKey{dir, name}); ok {
		return child, nil
	}
	var found Ino
	err := fs.dirScanLocked(dir, func(_ uint64, ino Ino, n []byte) bool {
		if string(n) == name {
			found = ino
			return true
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotExist
	}
	fs.dnlc.put(ncKey{dir, name}, found)
	return found, nil
}

// dirAddLocked inserts an entry, reusing a free slot or extending the
// directory.  The caller has verified that name does not already exist.
func (fs *FS) dirAddLocked(dir Ino, name string, child Ino) error {
	din, err := fs.readInodeLocked(dir)
	if err != nil {
		return err
	}
	nSlots := din.Size / dirSlotSize
	freeIdx := uint64(1<<63 - 1)
	foundFree := false
	err = func() error {
		for fbn := uint64(0); fbn*dirSlotsPerBlock < nSlots; fbn++ {
			bn, err := fs.blockmapLocked(&din, fbn, false)
			if err != nil {
				return err
			}
			if bn == 0 {
				freeIdx = fbn * dirSlotsPerBlock
				foundFree = true
				return nil
			}
			blk, err := fs.st.read(bn)
			if err != nil {
				return err
			}
			for s := 0; s < dirSlotsPerBlock; s++ {
				idx := fbn*dirSlotsPerBlock + uint64(s)
				if idx >= nSlots {
					return nil
				}
				if ino, _ := decodeSlot(blk[s*dirSlotSize:]); ino == 0 {
					freeIdx = idx
					foundFree = true
					return nil
				}
			}
		}
		return nil
	}()
	if err != nil {
		return err
	}
	idx := nSlots
	if foundFree {
		idx = freeIdx
	}
	fbn, off := slotAddr(idx)
	bn, err := fs.blockmapLocked(&din, fbn, true)
	if err != nil {
		return err
	}
	blk, err := fs.st.copyOf(bn)
	if err != nil {
		return err
	}
	encodeSlot(blk[off:], child, name)
	if err := fs.st.write(bn, blk); err != nil {
		return err
	}
	if end := (idx + 1) * dirSlotSize; end > din.Size {
		din.Size = end
	}
	din.Mtime = fs.tick()
	if err := fs.writeInodeLocked(dir, din); err != nil {
		return err
	}
	fs.dnlc.put(ncKey{dir, name}, child)
	return nil
}

// dirRemoveLocked deletes the entry for name, returning the child it named.
func (fs *FS) dirRemoveLocked(dir Ino, name string) (Ino, error) {
	return fs.dirRepointLocked(dir, name, 0)
}

// dirRepointLocked points dir's entry for name at child, or deletes it if
// child is 0, and returns the inode the entry named.  It rewrites the slot in
// place, so a name it repoints is never absent, even at a crash.
func (fs *FS) dirRepointLocked(dir Ino, name string, child Ino) (Ino, error) {
	din, err := fs.readInodeLocked(dir)
	if err != nil {
		return 0, err
	}
	var at uint64
	var old Ino
	err = fs.dirScanLocked(dir, func(idx uint64, ino Ino, n []byte) bool {
		if string(n) == name {
			at, old = idx, ino
			return true
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	if old == 0 {
		return 0, ErrNotExist
	}
	fbn, off := slotAddr(at)
	bn, err := fs.blockmapLocked(&din, fbn, false)
	if err != nil {
		return 0, err
	}
	blk, err := fs.st.copyOf(bn)
	if err != nil {
		return 0, err
	}
	if child == 0 {
		encodeSlot(blk[off:], 0, "")
	} else {
		encodeSlot(blk[off:], child, name)
	}
	if err := fs.st.write(bn, blk); err != nil {
		return 0, err
	}
	din.Mtime = fs.tick()
	if err := fs.writeInodeLocked(dir, din); err != nil {
		return 0, err
	}
	if child == 0 {
		fs.dnlc.drop(ncKey{dir, name})
	} else {
		fs.dnlc.put(ncKey{dir, name}, child)
	}
	return old, nil
}

// dirEmptyLocked reports whether dir contains only "." and "..".
func (fs *FS) dirEmptyLocked(dir Ino) (bool, error) {
	empty := true
	err := fs.dirScanLocked(dir, func(_ uint64, _ Ino, name []byte) bool {
		if string(name) != "." && string(name) != ".." {
			empty = false
			return true
		}
		return false
	})
	return empty, err
}

// Lookup resolves name within directory dir.
func (fs *FS) Lookup(dir Ino, name string) (Ino, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if name == "." {
		return dir, nil
	}
	if len(name) > MaxNameLen {
		return 0, ErrNameTooLong
	}
	return fs.dirLookupLocked(dir, name)
}

// Create makes a new regular file named name in dir.
func (fs *FS) Create(dir Ino, name string) (_ Ino, err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(name); err != nil {
		return 0, err
	}
	ddin, err := fs.readInodeLocked(dir)
	if err != nil {
		return 0, err
	}
	if ddin.Type != TypeDir {
		return 0, ErrNotDir
	}
	if _, err := fs.dirLookupLocked(dir, name); err == nil {
		return 0, ErrExist
	} else if err != ErrNotExist {
		return 0, err
	}
	ino, err := fs.iallocLocked(TypeFile)
	if err != nil {
		return 0, err
	}
	if err := fs.dirAddLocked(dir, name, ino); err != nil {
		_ = fs.ifreeLocked(ino)
		return 0, err
	}
	return ino, nil
}

// Mkdir makes a new directory named name in dir.
func (fs *FS) Mkdir(dir Ino, name string) (_ Ino, err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(name); err != nil {
		return 0, err
	}
	ddin, err := fs.readInodeLocked(dir)
	if err != nil {
		return 0, err
	}
	if ddin.Type != TypeDir {
		return 0, ErrNotDir
	}
	if _, err := fs.dirLookupLocked(dir, name); err == nil {
		return 0, ErrExist
	} else if err != ErrNotExist {
		return 0, err
	}
	ino, err := fs.iallocLocked(TypeDir)
	if err != nil {
		return 0, err
	}
	if err := fs.dirInitLocked(ino, dir); err != nil {
		_ = fs.ifreeLocked(ino)
		return 0, err
	}
	if err := fs.dirAddLocked(dir, name, ino); err != nil {
		_ = fs.ifreeLocked(ino)
		return 0, err
	}
	// Parent gains a link via the child's "..".
	ddin, err = fs.readInodeLocked(dir)
	if err != nil {
		return 0, err
	}
	ddin.Nlink++
	if err := fs.writeInodeLocked(dir, ddin); err != nil {
		return 0, err
	}
	return ino, nil
}

// Link creates a hard link to target as name in dir.  Hard links to
// directories are rejected, as in Unix.
func (fs *FS) Link(dir Ino, name string, target Ino) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(name); err != nil {
		return err
	}
	tdin, err := fs.readInodeLocked(target)
	if err != nil {
		return err
	}
	if tdin.Type == TypeDir {
		return ErrLinkedDir
	}
	ddin, err := fs.readInodeLocked(dir)
	if err != nil {
		return err
	}
	if ddin.Type != TypeDir {
		return ErrNotDir
	}
	if _, err := fs.dirLookupLocked(dir, name); err == nil {
		return ErrExist
	} else if err != ErrNotExist {
		return err
	}
	if err := fs.dirAddLocked(dir, name, target); err != nil {
		return err
	}
	tdin.Nlink++
	tdin.Ctime = fs.tick()
	return fs.writeInodeLocked(target, tdin)
}

// Remove unlinks a non-directory name; when the link count drops to zero
// the inode and its blocks are freed.
func (fs *FS) Remove(dir Ino, name string) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(name); err != nil {
		return err
	}
	child, err := fs.dirLookupLocked(dir, name)
	if err != nil {
		return err
	}
	cdin, err := fs.readInodeLocked(child)
	if err != nil {
		return err
	}
	if cdin.Type == TypeDir {
		return ErrIsDir
	}
	if _, err := fs.dirRemoveLocked(dir, name); err != nil {
		return err
	}
	cdin.Nlink--
	cdin.Ctime = fs.tick()
	if cdin.Nlink == 0 {
		return fs.ifreeLocked(child)
	}
	return fs.writeInodeLocked(child, cdin)
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(dir Ino, name string) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(name); err != nil {
		return err
	}
	child, err := fs.dirLookupLocked(dir, name)
	if err != nil {
		return err
	}
	cdin, err := fs.readInodeLocked(child)
	if err != nil {
		return err
	}
	if cdin.Type != TypeDir {
		return ErrNotDir
	}
	empty, err := fs.dirEmptyLocked(child)
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	if _, err := fs.dirRemoveLocked(dir, name); err != nil {
		return err
	}
	if err := fs.ifreeLocked(child); err != nil {
		return err
	}
	fs.dnlc.dropDir(child)
	// Parent loses the child's ".." link.
	ddin, err := fs.readInodeLocked(dir)
	if err != nil {
		return err
	}
	ddin.Nlink--
	ddin.Mtime = fs.tick()
	return fs.writeInodeLocked(dir, ddin)
}

// Rename moves sdir/sname to ddir/dname.  A non-directory destination is
// replaced atomically; directory destinations must not exist.
func (fs *FS) Rename(sdir Ino, sname string, ddir Ino, dname string) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	if err := validName(sname); err != nil {
		return err
	}
	if err := validName(dname); err != nil {
		return err
	}
	child, err := fs.dirLookupLocked(sdir, sname)
	if err != nil {
		return err
	}
	if sdir == ddir && sname == dname {
		return nil
	}
	cdin, err := fs.readInodeLocked(child)
	if err != nil {
		return err
	}
	// Moving a directory under itself would orphan the subtree.
	if cdin.Type == TypeDir {
		if child == ddir {
			return ErrDirLoop
		}
		for p := ddir; p != rootIno; {
			up, err := fs.dirLookupLocked(p, "..")
			if err != nil {
				return err
			}
			if up == child {
				return ErrDirLoop
			}
			if up == p {
				break
			}
			p = up
		}
	}
	// An existing destination is repointed at child in place, so the name is
	// never absent.
	old, err := fs.dirLookupLocked(ddir, dname)
	if err != nil && err != ErrNotExist {
		return err
	}
	var odin dinode
	if old != 0 {
		if odin, err = fs.readInodeLocked(old); err != nil {
			return err
		}
		if old == child {
			// Same inode under both names: just drop the source entry.
			if _, err := fs.dirRemoveLocked(sdir, sname); err != nil {
				return err
			}
			odin.Nlink--
			return fs.writeInodeLocked(old, odin)
		}
		if odin.Type == TypeDir {
			return ErrExist
		}
		if cdin.Type == TypeDir {
			return ErrNotDir
		}
	}
	// Count the new name before adding it, and uncount the old one only after
	// it is gone: a rename cut short in between leaves both names, and a
	// link count that frees the inode when one of them is removed would
	// leave the other naming recycled storage.  (Recovery recounts what a
	// crash leaves on the device.)
	cdin.Nlink++
	if err := fs.writeInodeLocked(child, cdin); err != nil {
		return err
	}
	if old == 0 {
		err = fs.dirAddLocked(ddir, dname, child)
	} else if _, err = fs.dirRepointLocked(ddir, dname, child); err == nil {
		if odin.Nlink--; odin.Nlink == 0 {
			err = fs.ifreeLocked(old)
		} else {
			err = fs.writeInodeLocked(old, odin)
		}
	}
	if err != nil {
		return err
	}
	// The new name, and the directory size that shows it, reach the device
	// before the old name is removed: a crash in between leaves both names.
	if err := fs.flushLocked(); err != nil {
		return err
	}
	if _, err := fs.dirRemoveLocked(sdir, sname); err != nil {
		return err
	}
	cdin.Nlink--
	if err := fs.writeInodeLocked(child, cdin); err != nil {
		return err
	}
	// Fix ".." and parent link counts when a directory changes parents.
	if cdin.Type == TypeDir && sdir != ddir {
		if _, err := fs.dirRepointLocked(child, "..", ddir); err != nil {
			return err
		}
		sdin, err := fs.readInodeLocked(sdir)
		if err != nil {
			return err
		}
		sdin.Nlink--
		if err := fs.writeInodeLocked(sdir, sdin); err != nil {
			return err
		}
		ddin, err := fs.readInodeLocked(ddir)
		if err != nil {
			return err
		}
		ddin.Nlink++
		if err := fs.writeInodeLocked(ddir, ddin); err != nil {
			return err
		}
	}
	return nil
}

// Readdir lists dir's entries, excluding "." and "..".
func (fs *FS) Readdir(dir Ino) ([]Dirent, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []Dirent
	err := fs.dirScanLocked(dir, func(_ uint64, ino Ino, name []byte) bool {
		if string(name) != "." && string(name) != ".." {
			out = append(out, Dirent{Name: string(name), Ino: ino})
		}
		return false
	})
	return out, err
}
