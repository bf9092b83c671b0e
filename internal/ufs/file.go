package ufs

import (
	"bytes"
	"fmt"
	"io"
)

// Stat describes an inode.
type Stat struct {
	Ino   Ino
	Type  FileType
	Nlink uint16
	Mode  uint16
	Size  uint64
	Mtime uint64
	Ctime uint64
}

// Stat returns metadata for ino.
func (fs *FS) Stat(ino Ino) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Ino: ino, Type: din.Type, Nlink: din.Nlink, Mode: din.Mode,
		Size: din.Size, Mtime: din.Mtime, Ctime: din.Ctime,
	}, nil
}

// SetMode updates the informational permission bits.
func (fs *FS) SetMode(ino Ino, mode uint16) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return err
	}
	din.Mode = mode
	din.Ctime = fs.tick()
	return fs.writeInodeLocked(ino, din)
}

// ReadAt reads up to len(p) bytes at offset off, returning io.EOF past end
// of file as os.File does.
func (fs *FS) ReadAt(ino Ino, p []byte, off int64) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.readAtLocked(ino, p, off)
}

func (fs *FS) readAtLocked(ino Ino, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrInvalidWhere
	}
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return 0, err
	}
	if uint64(off) >= din.Size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := din.Size - uint64(off); uint64(n) > rem {
		n = int(rem)
	}
	read := 0
	for read < n {
		fbn := uint64(off+int64(read)) / BlockSize
		boff := int(uint64(off+int64(read)) % BlockSize)
		chunk := BlockSize - boff
		if chunk > n-read {
			chunk = n - read
		}
		bn, err := fs.blockmapLocked(&din, fbn, false)
		if err != nil {
			return read, err
		}
		if bn == 0 {
			// Hole: zeros.
			for i := 0; i < chunk; i++ {
				p[read+i] = 0
			}
		} else {
			blk, err := fs.st.read(bn)
			if err != nil {
				return read, err
			}
			copy(p[read:read+chunk], blk[boff:])
		}
		read += chunk
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// WriteAt writes p at offset off, extending the file as needed.
func (fs *FS) WriteAt(ino Ino, p []byte, off int64) (_ int, err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	return fs.writeAtLocked(ino, p, off)
}

func (fs *FS) writeAtLocked(ino Ino, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrInvalidWhere
	}
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return 0, err
	}
	if din.Type == TypeDir {
		return 0, ErrIsDir
	}
	written, tried := 0, false
	for written < len(p) {
		fbn := uint64(off+int64(written)) / BlockSize
		boff := int(uint64(off+int64(written)) % BlockSize)
		chunk := BlockSize - boff
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		var bn uint32
		if bn, err = fs.blockmapLocked(&din, fbn, true); err != nil {
			break
		}
		var blk []byte
		if boff == 0 && chunk == BlockSize {
			blk = make([]byte, BlockSize)
		} else {
			if blk, err = fs.st.read(bn); err != nil {
				break
			}
			blk = bytes.Clone(blk)
		}
		copy(blk[boff:], p[written:written+chunk])
		tried = true
		if err = fs.st.write(bn, blk); err != nil {
			break
		}
		written += chunk
	}
	// A call that fails partway keeps what it did: the pointers it set, the
	// size over the bytes it wrote and — once it tried a block write, which may
	// have changed the block — a new Mtime, so no (Mtime, Ctime, Size) stamp
	// vouches for bytes that changed under it.
	if end := uint64(off) + uint64(written); end > din.Size {
		din.Size = end
	}
	if err == nil || tried {
		din.Mtime = fs.tick()
	}
	if werr := fs.writeInodeLocked(ino, din); err == nil {
		err = werr
	}
	return written, err
}

// Truncate sets the file size, freeing blocks past the new end.
func (fs *FS) Truncate(ino Ino, size uint64) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return err
	}
	if din.Type == TypeDir {
		return ErrIsDir
	}
	return fs.itruncateLocked(ino, size)
}

// ReadFile reads the whole file.
func (fs *FS) ReadFile(ino Ino) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return nil, err
	}
	p := make([]byte, din.Size)
	if din.Size == 0 {
		return p, nil
	}
	n, err := fs.readAtLocked(ino, p, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return p[:n], nil
}

// WriteFile replaces the whole file contents: data is written over the old
// bytes, in place, and the file is cut only if it was longer.
func (fs *FS) WriteFile(ino Ino, data []byte) (err error) {
	fs.mu.Lock()
	defer fs.endCallLocked(&err)
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return err
	}
	if din.Type == TypeDir {
		return ErrIsDir
	}
	if _, err := fs.writeAtLocked(ino, data, 0); err != nil {
		return err
	}
	return fs.itruncateLocked(ino, uint64(len(data)))
}

// Symlink creates a symbolic link named name in dir whose target is target.
func (fs *FS) Symlink(dir Ino, name, target string) (_ Ino, err error) {
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
	ino, err := fs.iallocLocked(TypeSymlink)
	if err != nil {
		return 0, err
	}
	if _, err := fs.writeAtLocked(ino, []byte(target), 0); err != nil {
		return 0, err
	}
	if err := fs.dirAddLocked(dir, name, ino); err != nil {
		_ = fs.ifreeLocked(ino)
		return 0, err
	}
	return ino, nil
}

// Readlink returns the target of a symlink.
func (fs *FS) Readlink(ino Ino) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		return "", err
	}
	if din.Type != TypeSymlink {
		return "", ErrNotSymlink
	}
	p := make([]byte, din.Size)
	if _, err := fs.readAtLocked(ino, p, 0); err != nil && err != io.EOF {
		return "", err
	}
	return string(p), nil
}

// Sync is a no-op: every completed operation is already on the device.
func (fs *FS) Sync() error { return nil }

// StatFS summarizes usage.
type StatFS struct {
	TotalBlocks uint32
	DataBlocks  uint32
	FreeBlocks  uint32
	TotalInodes uint32
	FreeInodes  uint32
}

// Statfs reports usage by scanning the bitmaps.
func (fs *FS) Statfs() (StatFS, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out StatFS
	out.TotalBlocks = fs.sb.NBlocks
	out.DataBlocks = fs.sb.NBlocks - fs.sb.DataStart
	out.TotalInodes = fs.sb.NInodes
	var err error
	if out.FreeBlocks, err = fs.blkMap.countClear(fs.sb.DataStart, fs.sb.NBlocks); err != nil {
		return out, err
	}
	out.FreeInodes, err = fs.inoMap.countClear(1, fs.sb.NInodes)
	return out, err
}

// debugString renders an inode for error messages.
func (d dinode) debugString(ino Ino) string {
	return fmt.Sprintf("ino %d type=%v nlink=%d size=%d", ino, d.Type, d.Nlink, d.Size)
}
