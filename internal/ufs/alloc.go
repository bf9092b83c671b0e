package ufs

import (
	"fmt"
	"math/bits"
)

// bitsPerBlock is how many objects one bitmap block describes.
const bitsPerBlock = BlockSize * 8

// zeroBlock is what every freshly allocated block reads as until it is
// written: cached blocks are never written to (cache.go), so any number of
// them may share one buffer, which is never retired to the buffer pool.
var zeroBlock = make([]byte, BlockSize)

// bitmap is one of the two allocation bitmaps: n bits, one per inode or per
// block, stored little-end first from device block start on (1 = in use).
// fs.inoMap and fs.blkMap are the only two.  A bit is set in the call's staged
// copy of its block; a bit the call clears waits in freed until the flush, so
// a call never reuses what it freed.
type bitmap struct {
	st    *stage
	start uint32
	n     uint32
	freed []uint32
}

// block reads the bitmap block that holds bit i.
func (m bitmap) block(i uint32) (bn uint32, blk []byte, err error) {
	if i >= m.n {
		return 0, nil, fmt.Errorf("ufs: bitmap index %d out of range %d", i, m.n)
	}
	bn = m.start + i/bitsPerBlock
	blk, err = m.st.read(bn)
	return bn, blk, err
}

func (m bitmap) test(i uint32) (bool, error) {
	_, blk, err := m.block(i)
	if err != nil {
		return false, err
	}
	return blk[i%bitsPerBlock/8]&(1<<(i%8)) != 0, nil
}

// set sets bit i now, or clears it at the flush.
func (m *bitmap) set(i uint32, on bool) error {
	if i >= m.n {
		return fmt.Errorf("ufs: bitmap index %d out of range %d", i, m.n)
	}
	if !on {
		m.freed = append(m.freed, i)
		return nil
	}
	blk, err := m.st.modify(m.start + i/bitsPerBlock)
	if err == nil {
		blk[i%bitsPerBlock/8] |= 1 << (i % 8)
	}
	return err
}

// applyFrees clears the bits freed so far in their staged blocks.
func (m *bitmap) applyFrees() error {
	for len(m.freed) > 0 {
		i := m.freed[len(m.freed)-1]
		blk, err := m.st.modify(m.start + i/bitsPerBlock)
		if err != nil {
			return err
		}
		blk[i%bitsPerBlock/8] &^= 1 << (i % 8)
		m.freed = m.freed[:len(m.freed)-1]
	}
	return nil
}

// scan reads each bitmap block overlapping bits [from, to) once, in order,
// and hands fn each byte that covers part of the range, base being the index
// of the byte's first bit.  Every bit outside [from, to) or beyond n reads as
// in use, so fn never has to look at a boundary.  fn returns true to stop.
func (m bitmap) scan(from, to uint32, fn func(base uint32, v byte) bool) error {
	if to > m.n {
		to = m.n
	}
	for from < to {
		end := to
		if room := bitsPerBlock - from%bitsPerBlock; end-from > room {
			end = from + room
		}
		_, blk, err := m.block(from)
		if err != nil {
			return err
		}
		first, last := from/8, (end-1)/8
		for i := first; i <= last; i++ {
			v := blk[i%BlockSize]
			if i == first {
				v |= 1<<(from%8) - 1
			}
			if i == last && end%8 != 0 {
				v |= 0xff << (end % 8)
			}
			if fn(i*8, v) {
				return nil
			}
		}
		from = end
	}
	return nil
}

// nextClear returns the lowest clear bit in [from, to), if there is one.
func (m bitmap) nextClear(from, to uint32) (idx uint32, ok bool, err error) {
	err = m.scan(from, to, func(base uint32, v byte) bool {
		if v != 0xff {
			idx, ok = base+uint32(bits.TrailingZeros8(^v)), true
		}
		return ok
	})
	return idx, ok, err
}

// countClear returns the number of clear bits in [from, to).
func (m bitmap) countClear(from, to uint32) (n uint32, err error) {
	err = m.scan(from, to, func(_ uint32, v byte) bool {
		n += uint32(bits.OnesCount8(^v))
		return false
	})
	return n, err
}

// ballocLocked allocates a data block using a next-fit rotor and returns its
// number.  The block reads as zeros until the call writes it (stage).
func (fs *FS) ballocLocked() (uint32, error) {
	start := fs.rotor
	if start < fs.sb.DataStart || start >= fs.sb.NBlocks {
		start = fs.sb.DataStart
	}
	bn, ok, err := fs.blkMap.nextClear(start, fs.sb.NBlocks)
	if err == nil && !ok {
		bn, ok, err = fs.blkMap.nextClear(fs.sb.DataStart, start)
	}
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoSpace
	}
	if err := fs.blkMap.set(bn, true); err != nil {
		return 0, err
	}
	fs.st.fresh[bn] = true
	fs.rotor = bn + 1
	return bn, nil
}

// bfreeLocked releases a data block.
func (fs *FS) bfreeLocked(bn uint32) error {
	if bn < fs.sb.DataStart || bn >= fs.sb.NBlocks {
		return fmt.Errorf("ufs: bfree of non-data block %d", bn)
	}
	used, err := fs.blkMap.test(bn)
	if err != nil {
		return err
	}
	if !used {
		return fmt.Errorf("ufs: double free of block %d", bn)
	}
	fs.bc.drop(bn)
	return fs.blkMap.set(bn, false)
}

// iallocLocked allocates the lowest free inode, of the given type and with
// nlink 1 for the name its caller gives it next (dirInit sets a directory's);
// until that lands it is unreachable, which recovery reclaims whatever nlink.
func (fs *FS) iallocLocked(t FileType) (Ino, error) {
	i, ok, err := fs.inoMap.nextClear(1, fs.sb.NInodes)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoInodes
	}
	if err := fs.inoMap.set(i, true); err != nil {
		return 0, err
	}
	now := fs.tick()
	din := dinode{Type: t, Nlink: 1, Ctime: now, Mtime: now}
	if err := fs.writeInodeLocked(Ino(i), din); err != nil {
		return 0, err
	}
	return Ino(i), nil
}

// ifreeLocked releases an inode no entry names any more and its data blocks,
// whose pointers stay on the device until the inode is zeroed: recovery
// rebuilds the block bitmap without the unreachable inode.
func (fs *FS) ifreeLocked(ino Ino) error {
	din, err := fs.ic.get(ino)
	if err != nil {
		return err
	}
	if err := fs.freeBlocksLocked(&din, 0); err != nil {
		return err
	}
	if err := fs.writeInodeLocked(ino, dinode{}); err != nil {
		return err
	}
	fs.ic.drop(ino)
	return fs.inoMap.set(uint32(ino), false)
}
