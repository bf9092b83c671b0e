package ufs

import (
	"bytes"
	"fmt"
	"math/bits"
)

// bitsPerBlock is how many objects one bitmap block describes.
const bitsPerBlock = BlockSize * 8

// zeroBlock is what every freshly allocated block holds: cached blocks are
// never written to (cache.go), so any number of them may share one buffer.
var zeroBlock = make([]byte, BlockSize)

// bitmap is one of the two allocation bitmaps: n bits, one per inode or per
// block, stored little-end first from device block start on (1 = in use).
// It is a value; fs.inoMap and fs.blkMap are the only two.
type bitmap struct {
	bc    *bufferCache
	start uint32
	n     uint32
}

// block reads the bitmap block that holds bit i.
func (m bitmap) block(i uint32) (bn uint32, blk []byte, err error) {
	if i >= m.n {
		return 0, nil, fmt.Errorf("ufs: bitmap index %d out of range %d", i, m.n)
	}
	bn = m.start + i/bitsPerBlock
	blk, err = m.bc.read(bn)
	return bn, blk, err
}

func (m bitmap) test(i uint32) (bool, error) {
	_, blk, err := m.block(i)
	if err != nil {
		return false, err
	}
	return blk[i%bitsPerBlock/8]&(1<<(i%8)) != 0, nil
}

func (m bitmap) set(i uint32, on bool) error {
	bn, blk, err := m.block(i)
	if err != nil {
		return err
	}
	blk = bytes.Clone(blk)
	off, mask := i%bitsPerBlock/8, byte(1)<<(i%8)
	if on {
		blk[off] |= mask
	} else {
		blk[off] &^= mask
	}
	return m.bc.write(bn, blk)
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

// ballocLocked allocates a data block using a next-fit rotor, zero-fills it
// and returns its number.
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
	// Zero the block so stale contents never leak into new files.
	if err := fs.bc.write(bn, zeroBlock); err != nil {
		return 0, err
	}
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
