package ufs

import (
	"bytes"
	"slices"

	"repro/internal/invariant"
)

// stage is the device as one exported mutating call sees it (DESIGN.md §16).
// Data and directory blocks are written through at once (write).  A metadata
// block the call changes — bitmap, inode table, indirect — is copied once
// into blocks and changed there (modify), and flushLocked writes each once,
// at the end of the call, after every block the call wrote through.  A block
// the call allocates is not zero-filled: it reads as zeros until its first
// write, which carries its contents.  Recovery rebuilds both bitmaps and
// every link count from the tree, which is what lets the bitmaps go last.
type stage struct {
	bc        *bufferCache
	dataStart uint32
	blocks    map[uint32][]byte // metadata blocks changed and not yet written
	fresh     map[uint32]bool   // blocks allocated: true until written
	order     []uint32          // flush's scratch
}

func newStage(bc *bufferCache, dataStart uint32) *stage {
	return &stage{bc: bc, dataStart: dataStart, blocks: map[uint32][]byte{}, fresh: map[uint32]bool{}}
}

// read lends block bn as the call sees it; the caller must not write to it.
func (s *stage) read(bn uint32) ([]byte, error) {
	if blk, ok := s.blocks[bn]; ok {
		return blk, nil
	}
	if s.fresh[bn] {
		return zeroBlock, nil
	}
	return s.bc.read(bn)
}

// modify returns the call's own copy of metadata block bn, to change in place.
func (s *stage) modify(bn uint32) ([]byte, error) {
	if blk, ok := s.blocks[bn]; ok {
		return blk, nil
	}
	blk, err := s.read(bn)
	if err != nil {
		return nil, err
	}
	blk = bytes.Clone(blk)
	s.blocks[bn] = blk
	return blk, nil
}

// write writes data or directory block bn through, taking ownership of blk.
func (s *stage) write(bn uint32, blk []byte) error {
	if invariant.Enabled() {
		_, staged := s.blocks[bn]
		invariant.Checkf(bn >= s.dataStart && !staged, "ufs: metadata block %d written outside the flush", bn)
	}
	err := s.bc.write(bn, blk)
	if err == nil && s.fresh[bn] {
		s.fresh[bn] = false
	}
	return err
}

// flush writes the staged blocks numbered from on, each once, and forgets
// each as it lands.  The blocks the call allocated go first — their staged
// copy, or zeros if no write filled them — so no block that was on the device
// before the call is written pointing at one that does not hold its contents
// yet.  The rest follow in descending block order: indirect, then inode
// table, then (from 0) bitmaps.  Blocks in freed are dropped unwritten:
// nothing on the device will point at them.
func (s *stage) flush(from uint32, freed []uint32) error {
	for _, bn := range freed {
		delete(s.blocks, bn)
		delete(s.fresh, bn)
	}
	order := s.order[:0]
	for bn, unwritten := range s.fresh {
		if _, staged := s.blocks[bn]; staged || unwritten {
			order = append(order, bn)
		}
	}
	slices.Sort(order)
	first := len(order)
	for bn := range s.blocks {
		if _, fresh := s.fresh[bn]; !fresh && bn >= from {
			order = append(order, bn)
		}
	}
	slices.Sort(order[first:])
	slices.Reverse(order[first:])
	s.order = order
	for _, bn := range order {
		blk, ok := s.blocks[bn]
		if !ok {
			blk = zeroBlock
		}
		if err := s.bc.write(bn, blk); err != nil {
			return err
		}
		delete(s.blocks, bn)
		delete(s.fresh, bn)
	}
	clear(s.fresh)
	return nil
}

// flushLocked writes what the calls so far have staged.  First the blocks
// they allocated, the indirect and the inode-table blocks; then, with nothing
// on the device pointing at what they freed any more, the frees are applied
// and the bitmaps written.  A write that fails leaves everything it did not
// write staged, so the running FS keeps answering as the calls left it and
// the next flush brings the device up to it — where a device left mid-flush
// would need the recovery only a mount runs.
func (fs *FS) flushLocked() error {
	if err := fs.st.flush(fs.sb.ITableStart, fs.blkMap.freed); err != nil {
		return err
	}
	if err := fs.inoMap.applyFrees(); err != nil {
		return err
	}
	if err := fs.blkMap.applyFrees(); err != nil {
		return err
	}
	return fs.st.flush(0, nil)
}

// endCallLocked ends an exported mutating call: it flushes what the call
// staged, then releases fs.mu.  A failed flush is the call's error unless the
// call already had one.
func (fs *FS) endCallLocked(err *error) {
	if ferr := fs.flushLocked(); ferr != nil && *err == nil {
		*err = ferr
	}
	fs.mu.Unlock()
}
