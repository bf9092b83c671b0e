package ufs

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Check performs an fsck-style consistency scan and returns a list of
// problems (empty means clean):
//
//   - every block referenced by an allocated inode is marked allocated and
//     referenced exactly once
//   - every allocated data block is referenced by some inode
//   - every directory entry points at an allocated inode
//   - every directory's ".." names a directory that names it
//   - link counts match the number of directory references
//   - every allocated inode is reachable from the root
func (fs *FS) Check() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	var problems []string
	blockRefs := make(map[uint32]int)

	// Pass 1: walk every allocated inode's block tree.
	for i := uint32(1); i < fs.sb.NInodes; i++ {
		used, err := fs.inoMap.test(i)
		if err != nil {
			return nil, err
		}
		din, err := fs.ic.get(Ino(i))
		if err != nil {
			return nil, err
		}
		if used != (din.Type != TypeFree) {
			problems = append(problems, fmt.Sprintf("inode %d: bitmap=%v but type=%v", i, used, din.Type))
			continue
		}
		if !used {
			continue
		}
		if err := fs.walkBlocks(&din, func(bn uint32) { blockRefs[bn]++ }); err != nil {
			return nil, err
		}
	}

	// Pass 2: compare block references to the bitmap.
	for bn, n := range blockRefs {
		if n > 1 {
			problems = append(problems, fmt.Sprintf("block %d: referenced %d times", bn, n))
		}
		used, err := fs.blkMap.test(bn)
		if err != nil {
			return nil, err
		}
		if !used {
			problems = append(problems, fmt.Sprintf("block %d: referenced but marked free", bn))
		}
	}
	for bn := fs.sb.DataStart; bn < fs.sb.NBlocks; bn++ {
		used, err := fs.blkMap.test(bn)
		if err != nil {
			return nil, err
		}
		if used && blockRefs[bn] == 0 {
			problems = append(problems, fmt.Sprintf("block %d: marked allocated but unreferenced", bn))
		}
	}

	// Pass 3: walk the directory tree from the root.
	links := parentLinks{namedBy: make(map[Ino][]Ino)}
	linkRefs, reachable, err := fs.walkTreeLocked(func(dir Ino, e Dirent, din dinode) (bool, error) {
		if din.Type == TypeFree {
			problems = append(problems, fmt.Sprintf("dir %d: entry %q points at free inode %d", dir, e.Name, e.Ino))
			return false, nil
		}
		if e.Name == "." && e.Ino != dir {
			problems = append(problems, fmt.Sprintf("dir %d: \".\" points at %d", dir, e.Ino))
		}
		links.see(dir, e, din)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range links.stale() {
		problems = append(problems, fmt.Sprintf("dir %d: \"..\" points at %d, which does not name it", s.dir, s.up))
	}

	// Pass 4: link counts and reachability.
	for i := uint32(1); i < fs.sb.NInodes; i++ {
		din, err := fs.ic.get(Ino(i))
		if err != nil {
			return nil, err
		}
		if din.Type == TypeFree {
			continue
		}
		if got, want := din.Nlink, linkRefs[Ino(i)]; got != want {
			problems = append(problems, fmt.Sprintf("%s: nlink=%d but %d references", din.debugString(Ino(i)), got, want))
		}
		if !reachable[Ino(i)] {
			problems = append(problems, fmt.Sprintf("%s: unreachable from root", din.debugString(Ino(i))))
		}
	}
	return problems, nil
}

// walkTreeLocked walks the directory tree from the root, once per directory,
// and returns how many entries name each inode (what its nlink should be) and
// which inodes are reachable.  keep is asked about every entry, with the
// inode it names; an entry it does not keep is neither counted nor followed.
// Check and recoverLocked differ only in their keep.
func (fs *FS) walkTreeLocked(keep func(dir Ino, e Dirent, din dinode) (bool, error)) (linkRefs map[Ino]uint16, reachable map[Ino]bool, err error) {
	linkRefs = make(map[Ino]uint16)
	reachable = make(map[Ino]bool)
	var walk func(dir Ino) error
	walk = func(dir Ino) error {
		if reachable[dir] {
			return nil
		}
		reachable[dir] = true
		var ents []Dirent
		if err := fs.dirScanLocked(dir, func(_ uint64, ino Ino, name []byte) bool {
			ents = append(ents, Dirent{Name: string(name), Ino: ino})
			return false
		}); err != nil {
			return err
		}
		for _, e := range ents {
			din, err := fs.ic.get(e.Ino)
			if err != nil {
				return err
			}
			if ok, err := keep(dir, e, din); err != nil {
				return err
			} else if !ok {
				continue
			}
			switch e.Name {
			case ".":
				linkRefs[dir]++
			case "..":
				linkRefs[e.Ino]++
			default:
				linkRefs[e.Ino]++
				if din.Type == TypeDir {
					if err := walk(e.Ino); err != nil {
						return err
					}
				} else {
					reachable[e.Ino] = true
				}
			}
		}
		return nil
	}
	return linkRefs, reachable, walk(rootIno)
}

// parentLinks collects, along walkTreeLocked, the directories that name each
// directory and where each directory's ".." points.  A rename that moves a
// directory to a new parent and is cut after dropping the old name but before
// rewriting ".." leaves a ".." naming a directory that no longer names it.
type parentLinks struct {
	namedBy   map[Ino][]Ino
	dirs, ups []Ino // each walked directory but the root, and its ".."
}

func (p *parentLinks) see(dir Ino, e Dirent, din dinode) {
	switch {
	case e.Name == "..":
		if dir != rootIno {
			p.dirs, p.ups = append(p.dirs, dir), append(p.ups, e.Ino)
		}
	case e.Name != "." && din.Type == TypeDir:
		p.namedBy[e.Ino] = append(p.namedBy[e.Ino], dir)
	}
}

// staleParent is a directory whose ".." names up, a directory that does not
// name it; parent is the first directory that does.
type staleParent struct{ dir, up, parent Ino }

// stale lists, in walk order, every directory whose ".." is stale.
func (p *parentLinks) stale() []staleParent {
	var out []staleParent
	for i, dir := range p.dirs {
		if named := p.namedBy[dir]; len(named) > 0 && !slices.Contains(named, p.ups[i]) {
			out = append(out, staleParent{dir, p.ups[i], named[0]})
		}
	}
	return out
}

// walkBlocks calls fn for every device block owned by the inode, including
// indirect blocks themselves.
func (fs *FS) walkBlocks(din *dinode, fn func(bn uint32)) error {
	for _, bn := range din.Direct {
		if bn != 0 {
			fn(bn)
		}
	}
	if din.Indirect != 0 {
		fn(din.Indirect)
		if err := fs.walkIndirect(din.Indirect, fn); err != nil {
			return err
		}
	}
	if din.DblIndirect != 0 {
		fn(din.DblIndirect)
		blk, err := fs.st.read(din.DblIndirect)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			mid := binary.BigEndian.Uint32(blk[4*i:])
			if mid == 0 {
				continue
			}
			fn(mid)
			if err := fs.walkIndirect(mid, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

func (fs *FS) walkIndirect(ibn uint32, fn func(bn uint32)) error {
	blk, err := fs.st.read(ibn)
	if err != nil {
		return err
	}
	for i := 0; i < PtrsPerBlock; i++ {
		if bn := binary.BigEndian.Uint32(blk[4*i:]); bn != 0 {
			fn(bn)
		}
	}
	return nil
}
