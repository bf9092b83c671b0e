package ufs

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// dinode is the on-disk inode: 128 bytes.
//
//	off  0  Type    uint16
//	off  2  Nlink   uint16
//	off  4  Mode    uint16 (permissions, informational)
//	off  6  pad     uint16
//	off  8  Size    uint64
//	off 16  Mtime   uint64 (logical clock)
//	off 24  Ctime   uint64 (logical clock)
//	off 32  Direct  [10]uint32
//	off 72  Indirect  uint32
//	off 76  DblIndirect uint32
//	off 80..127 reserved
type dinode struct {
	Type        FileType
	Nlink       uint16
	Mode        uint16
	Size        uint64
	Mtime       uint64
	Ctime       uint64
	Direct      [NDirect]uint32
	Indirect    uint32
	DblIndirect uint32
}

func (d *dinode) encode(p []byte) {
	binary.BigEndian.PutUint16(p[0:], uint16(d.Type))
	binary.BigEndian.PutUint16(p[2:], d.Nlink)
	binary.BigEndian.PutUint16(p[4:], d.Mode)
	binary.BigEndian.PutUint64(p[8:], d.Size)
	binary.BigEndian.PutUint64(p[16:], d.Mtime)
	binary.BigEndian.PutUint64(p[24:], d.Ctime)
	for i := 0; i < NDirect; i++ {
		binary.BigEndian.PutUint32(p[32+4*i:], d.Direct[i])
	}
	binary.BigEndian.PutUint32(p[72:], d.Indirect)
	binary.BigEndian.PutUint32(p[76:], d.DblIndirect)
}

func (d *dinode) decode(p []byte) {
	d.Type = FileType(binary.BigEndian.Uint16(p[0:]))
	d.Nlink = binary.BigEndian.Uint16(p[2:])
	d.Mode = binary.BigEndian.Uint16(p[4:])
	d.Size = binary.BigEndian.Uint64(p[8:])
	d.Mtime = binary.BigEndian.Uint64(p[16:])
	d.Ctime = binary.BigEndian.Uint64(p[24:])
	for i := 0; i < NDirect; i++ {
		d.Direct[i] = binary.BigEndian.Uint32(p[32+4*i:])
	}
	d.Indirect = binary.BigEndian.Uint32(p[72:])
	d.DblIndirect = binary.BigEndian.Uint32(p[76:])
}

func (fs *FS) inodeLoc(ino Ino) (bn uint32, off int, err error) {
	if ino == 0 || uint32(ino) >= fs.sb.NInodes {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	bn = fs.sb.ITableStart + uint32(ino)/InodesPerBlock
	off = int(uint32(ino)%InodesPerBlock) * InodeSize
	return bn, off, nil
}

// readInodeFromDisk bypasses the inode cache (the cache itself calls it).
func (fs *FS) readInodeFromDisk(ino Ino) (dinode, error) {
	bn, off, err := fs.inodeLoc(ino)
	if err != nil {
		return dinode{}, err
	}
	blk, err := fs.st.read(bn)
	if err != nil {
		return dinode{}, err
	}
	var din dinode
	din.decode(blk[off : off+InodeSize])
	return din, nil
}

// readInodeLocked returns the inode, failing if it is free.
func (fs *FS) readInodeLocked(ino Ino) (dinode, error) {
	din, err := fs.ic.get(ino)
	if err != nil {
		return dinode{}, err
	}
	if din.Type == TypeFree {
		return dinode{}, fmt.Errorf("%w: inode %d is free", ErrBadInode, ino)
	}
	return din, nil
}

// writeInodeLocked stages the inode for the call's flush and refreshes the
// cache.
func (fs *FS) writeInodeLocked(ino Ino, din dinode) error {
	bn, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	blk, err := fs.st.modify(bn)
	if err != nil {
		return err
	}
	din.encode(blk[off : off+InodeSize])
	fs.ic.put(ino, din)
	return nil
}

// blockmapLocked translates a file-relative block index to a device block.
// When alloc is true, missing blocks (including indirect blocks) are
// allocated; the caller must persist din afterwards since Direct/Indirect
// pointers may change.  Returns 0 (a hole) when alloc is false and the
// block is unmapped.
func (fs *FS) blockmapLocked(din *dinode, fbn uint64, alloc bool) (uint32, error) {
	if fbn >= MaxFileBlocks {
		return 0, ErrFileTooBig
	}
	// Direct.
	if fbn < NDirect {
		bn := din.Direct[fbn]
		if bn == 0 && alloc {
			var err error
			bn, err = fs.ballocLocked()
			if err != nil {
				return 0, err
			}
			din.Direct[fbn] = bn
		}
		return bn, nil
	}
	fbn -= NDirect
	// Single indirect.
	if fbn < PtrsPerBlock {
		if din.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			bn, err := fs.ballocLocked()
			if err != nil {
				return 0, err
			}
			din.Indirect = bn
		}
		return fs.indirectSlotLocked(din.Indirect, uint32(fbn), alloc)
	}
	fbn -= PtrsPerBlock
	// Double indirect.
	if din.DblIndirect == 0 {
		if !alloc {
			return 0, nil
		}
		bn, err := fs.ballocLocked()
		if err != nil {
			return 0, err
		}
		din.DblIndirect = bn
	}
	outer := uint32(fbn / PtrsPerBlock)
	inner := uint32(fbn % PtrsPerBlock)
	mid, err := fs.indirectSlotLocked(din.DblIndirect, outer, alloc)
	if err != nil || mid == 0 {
		return 0, err
	}
	return fs.indirectSlotLocked(mid, inner, alloc)
}

// indirectSlotLocked reads slot idx of indirect block ibn, allocating a fresh
// block into the slot when alloc is true and the slot is empty.
func (fs *FS) indirectSlotLocked(ibn, idx uint32, alloc bool) (uint32, error) {
	blk, err := fs.st.read(ibn)
	if err != nil {
		return 0, err
	}
	bn := binary.BigEndian.Uint32(blk[4*idx:])
	if bn == 0 && alloc {
		bn, err = fs.ballocLocked()
		if err == nil {
			err = fs.setSlotLocked(ibn, idx, bn)
		}
	}
	return bn, err
}

// setSlotLocked points slot idx of indirect block ibn at bn, in the call's
// copy of the block.
func (fs *FS) setSlotLocked(ibn, idx, bn uint32) error {
	blk, err := fs.st.modify(ibn)
	if err == nil {
		binary.BigEndian.PutUint32(blk[4*idx:], bn)
	}
	return err
}

// itruncateLocked shrinks or grows (sparsely) the file to size bytes,
// freeing blocks past the new end.  A size no inode can map is refused, as
// blockmapLocked refuses a write there: the size reaches here unchecked from
// the NFS wire, and whoever reads the file back sizes a buffer from it.
func (fs *FS) itruncateLocked(ino Ino, size uint64) error {
	if size > MaxFileBlocks*BlockSize {
		return ErrFileTooBig
	}
	din, err := fs.ic.get(ino)
	if err != nil {
		return err
	}
	if size >= din.Size {
		if size == din.Size {
			return nil
		}
		din.Size = size
		din.Mtime = fs.tick()
		return fs.writeInodeLocked(ino, din)
	}
	if err := fs.freeBlocksLocked(&din, (size+BlockSize-1)/BlockSize); err != nil {
		return err
	}
	// Zero the tail of the partial last block so stale bytes never
	// resurface if the file is later extended past the new size.
	if tail := size % BlockSize; tail != 0 {
		bn, err := fs.blockmapLocked(&din, size/BlockSize, false)
		if err != nil {
			return err
		}
		if bn != 0 {
			blk, err := fs.st.read(bn)
			if err != nil {
				return err
			}
			blk = bytes.Clone(blk)
			clear(blk[tail:])
			if err := fs.st.write(bn, blk); err != nil {
				return err
			}
		}
	}
	din.Size = size
	din.Mtime = fs.tick()
	return fs.writeInodeLocked(ino, din)
}

// freeBlocksLocked frees din's blocks past file block keep; the caller writes din.
func (fs *FS) freeBlocksLocked(din *dinode, keep uint64) error {
	// Free direct blocks.
	for i := keep; i < NDirect; i++ {
		if din.Direct[i] != 0 {
			if err := fs.bfreeLocked(din.Direct[i]); err != nil {
				return err
			}
			din.Direct[i] = 0
		}
	}
	// Free single-indirect range.
	if din.Indirect != 0 {
		var start uint64
		if keep > NDirect {
			start = keep - NDirect
		}
		empty, err := fs.freeIndirectRangeLocked(din.Indirect, uint32(min64(start, PtrsPerBlock)))
		if err != nil {
			return err
		}
		if empty && start == 0 {
			if err := fs.bfreeLocked(din.Indirect); err != nil {
				return err
			}
			din.Indirect = 0
		}
	}
	// Free double-indirect range.
	if din.DblIndirect != 0 {
		var start uint64
		if keep > NDirect+PtrsPerBlock {
			start = keep - NDirect - PtrsPerBlock
		}
		blk, err := fs.st.read(din.DblIndirect)
		if err != nil {
			return err
		}
		allEmpty := true
		for o := uint32(0); o < PtrsPerBlock; o++ {
			mid := binary.BigEndian.Uint32(blk[4*o:])
			if mid == 0 {
				continue
			}
			lo := uint64(o) * PtrsPerBlock
			hi := lo + PtrsPerBlock
			switch {
			case start >= hi:
				allEmpty = false // fully kept
			case start <= lo:
				// Fully freed mid-block.
				if _, err := fs.freeIndirectRangeLocked(mid, 0); err != nil {
					return err
				}
				if err := fs.bfreeLocked(mid); err != nil {
					return err
				}
				if err := fs.setSlotLocked(din.DblIndirect, o, 0); err != nil {
					return err
				}
			default:
				empty, err := fs.freeIndirectRangeLocked(mid, uint32(start-lo))
				if err != nil {
					return err
				}
				if empty {
					if err := fs.bfreeLocked(mid); err != nil {
						return err
					}
					if err := fs.setSlotLocked(din.DblIndirect, o, 0); err != nil {
						return err
					}
				} else {
					allEmpty = false
				}
			}
		}
		if allEmpty && start == 0 {
			if err := fs.bfreeLocked(din.DblIndirect); err != nil {
				return err
			}
			din.DblIndirect = 0
		}
	}
	return nil
}

// freeIndirectRangeLocked frees slots [start, PtrsPerBlock) of an indirect block,
// reporting whether the block is now entirely empty.  From start 0 the caller
// frees the block itself, so its slots are left as they are.
func (fs *FS) freeIndirectRangeLocked(ibn, start uint32) (empty bool, err error) {
	blk, err := fs.st.read(ibn)
	if err != nil {
		return false, err
	}
	empty = true
	for i := uint32(0); i < PtrsPerBlock; i++ {
		bn := binary.BigEndian.Uint32(blk[4*i:])
		if bn == 0 {
			continue
		}
		if i >= start {
			if err := fs.bfreeLocked(bn); err != nil {
				return false, err
			}
			if start > 0 {
				if err := fs.setSlotLocked(ibn, i, 0); err != nil {
					return false, err
				}
			}
		} else {
			empty = false
		}
	}
	return empty, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
