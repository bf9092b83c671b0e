// Package cryptfs is a stackable encryption layer — one of the services the
// paper expects to "slip in" to a vnode stack ("we expect to use it for
// performance monitoring, user authentication and encryption", §1).  It
// demonstrates the architectural claim: a layer that transforms file data
// transparently, added above any existing stack without modifying it.
//
// Data is encrypted with AES-CTR keyed per file: the counter stream is
// derived from the file's stable identity and the byte offset, so ReadAt
// and WriteAt at arbitrary offsets encrypt/decrypt independently — exactly
// the property a block-granular file system layer needs.  Names, directory
// structure and attributes pass through in the clear (sizes are preserved);
// only regular-file contents and symlink targets are protected.
package cryptfs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"repro/internal/vnode"
)

// VFS wraps a lower file system with transparent data encryption.
type VFS struct {
	vnode.Layer
	key [32]byte
}

// New derives a file-system key from secret and wraps lower.
func New(lower vnode.VFS, secret []byte) *VFS {
	c := &VFS{key: sha256.Sum256(secret)}
	c.Layer = vnode.Layer{Lower: lower, Wrap: func(p vnode.Pass) vnode.Vnode { return &cnode{Pass: p, fs: c} }}
	return c
}

// fileKey derives the per-file AES key from the layer key and the file's
// stable identity, so renames do not re-key and distinct files never share
// a counter stream.
func (c *VFS) fileKey(fileID string) []byte {
	h := sha256.New()
	h.Write(c.key[:])
	h.Write([]byte(fileID))
	return h.Sum(nil)[:32]
}

// xorKeyStreamAt applies the CTR keystream for absolute byte offset off.
func (c *VFS) xorKeyStreamAt(fileID string, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	block, err := aes.NewCipher(c.fileKey(fileID))
	if err != nil {
		return err
	}
	bs := int64(block.BlockSize())
	// Initial counter for the AES block containing off.
	var iv [16]byte
	ctr := uint64(off / bs)
	for i := 0; i < 8; i++ {
		iv[15-i] = byte(ctr >> (8 * i))
	}
	stream := cipher.NewCTR(block, iv[:])
	// Discard the keystream prefix inside the first block.
	if skip := off % bs; skip != 0 {
		var sink [16]byte
		stream.XORKeyStream(sink[:skip], sink[:skip])
	}
	stream.XORKeyStream(p, p)
	return nil
}

// cnode overrides what encryption changes: file data, symlink targets,
// and the size updates that must write encrypted zeros.
type cnode struct {
	vnode.Pass
	fs *VFS
	// id caches the file's stable identity used for key derivation; it is
	// set at most once, by whichever Getattr first returns it.
	id atomic.Pointer[string]
}

func (v *cnode) fileID() (string, error) {
	if id := v.id.Load(); id != nil {
		return *id, nil
	}
	a, err := v.Getattr()
	if err != nil {
		return "", err
	}
	return a.FileID, nil
}

func (v *cnode) Getattr() (vnode.Attr, error) {
	a, err := v.Pass.Getattr()
	if err == nil && v.id.Load() == nil {
		id := a.FileID
		v.id.CompareAndSwap(nil, &id)
	}
	return a, err
}

// symlinkKeyID is the stable key-derivation identity for symlink targets.
// Symlinks are created in one operation, before any file identity exists,
// so targets are encrypted under a layer-wide stream rather than a per-file
// one (equal targets therefore produce equal ciphertexts — an accepted
// leak for this demonstration layer).
const symlinkKeyID = "\x00symlink-target\x00"

// Symlink stores the target encrypted and hex-armored (so it remains a
// valid string on any substrate); Readlink reverses it.
func (v *cnode) Symlink(name, target string) error {
	buf := []byte(target)
	if err := v.fs.xorKeyStreamAt(symlinkKeyID, buf, 0); err != nil {
		return err
	}
	return v.Pass.Symlink(name, fmt.Sprintf("%x", buf))
}

func (v *cnode) Readlink() (string, error) {
	armored, err := v.Pass.Readlink()
	if err != nil {
		return "", err
	}
	buf := make([]byte, len(armored)/2)
	if _, err := fmt.Sscanf(armored, "%x", &buf); err != nil {
		return "", vnode.EIO
	}
	if err := v.fs.xorKeyStreamAt(symlinkKeyID, buf, 0); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (v *cnode) ReadAt(p []byte, off int64) (int, error) {
	id, err := v.fileID()
	if err != nil {
		return 0, err
	}
	n, rerr := v.Pass.ReadAt(p, off)
	if n > 0 {
		if err := v.fs.xorKeyStreamAt(id, p[:n], off); err != nil {
			return 0, err
		}
	}
	return n, rerr
}

func (v *cnode) WriteAt(p []byte, off int64) (int, error) {
	id, err := v.fileID()
	if err != nil {
		return 0, err
	}
	enc := make([]byte, len(p))
	copy(enc, p)
	if err := v.fs.xorKeyStreamAt(id, enc, off); err != nil {
		return 0, err
	}
	return v.Pass.WriteAt(enc, off)
}

// Truncate shrinks directly; growth is performed by writing encrypted
// zeros over the extension, because a substrate hole reads as plaintext
// zeros — which would decrypt to keystream garbage.
func (v *cnode) Truncate(size uint64) error {
	a, err := v.Pass.Getattr()
	if err != nil {
		return err
	}
	if size <= a.Size {
		return v.Pass.Truncate(size)
	}
	const chunk = 64 << 10
	zeros := make([]byte, chunk)
	for off := a.Size; off < size; {
		n := size - off
		if n > chunk {
			n = chunk
		}
		if _, err := v.WriteAt(zeros[:n], int64(off)); err != nil {
			return err
		}
		off += n
	}
	return nil
}

func (v *cnode) Setattr(sa vnode.SetAttr) error {
	if sa.Size != nil {
		if err := v.Truncate(*sa.Size); err != nil {
			return err
		}
		sa.Size = nil
		if sa.Mode == nil {
			return nil
		}
	}
	return v.Pass.Setattr(sa)
}
