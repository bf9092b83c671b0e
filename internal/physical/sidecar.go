package physical

// The seal: the tail of every file copy's aux member.
//
// The paper's availability argument (§1, §7) assumes a replica that has a
// version can serve it; silent media corruption breaks that silently — a
// flipped block would be served, and worse, *propagated*, as the sealed
// version.  Each stored file replica's aux member "A<fid>" therefore carries,
// after its fixed-size header (aux.go), the file's block manifest — its exact
// length plus the content address (SHA-256 truncated to 128 bits) of every
// ChecksumBlockSize chunk — sealed under the version vector the addresses were
// computed for.  The same addresses verify the data (scrub, serve, install) and
// are what a delta pull advertises and reassembles by (pull.go), so delta
// propagation needs no second summary of the same blocks.
//
// The seal rule is what makes verification safe across crashes: the
// manifest is trusted ONLY while its sealed vector equals the header's vector.
// Every crash window in the commit sequences (install, local write) leaves
// the tail sealed under a vector that differs from the header's — an
// *unverifiable* state that the scrubber reseals from local data — never a
// false mismatch.  An absent, torn, or undecodable tail is likewise just
// unverifiable; it never makes the header unreadable.
//
// Format of the tail, at offset auxFileSize (versioned, strict decode):
//
//	magic "FSDC" (4) | version u8 | flags u8 | sealed vv | length u64 | per-block address (16 each)
//
// No flag is defined: the flags byte must be zero.  The block count is
// derived from the length, so a truncated or padded tail fails to decode.
// The first tail of a copy is written with its header (writeAuxFile); an
// update with a new vector writes it in place (resealInPlace); a seal under
// the vector the header already holds commits the whole member by
// atomicReplace (writeAuxFile again).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repro/internal/ids"
	"repro/internal/vnode"
	"repro/internal/vv"
	"repro/internal/wire"
)

const (
	// ChecksumBlockSize is the verification and dedup granularity: one
	// address per 4 KiB of file data, matching the device block size.
	ChecksumBlockSize = 4096
	// BlockAddrSize is the size of a content address: SHA-256 truncated to
	// 128 bits, ample against accidental collision at volume scale.
	BlockAddrSize = 16

	sidecarVersion = 1

	// maxFileSize bounds a local write or truncate.  The seal is computed
	// over the image the file is about to hold before the store sees the
	// operation, and the size arrives unchecked from the wire, so it is
	// bounded before it sizes that image (the UFS substrate maps no file
	// much beyond 4 GiB either, and refuses with the same error).
	maxFileSize = 1 << 32
)

var sidecarMagic = []byte("FSDC")

// transientError is a sentinel error class the retry machinery treats as
// retryable (it implements Transient).
type transientError string

func (e transientError) Error() string   { return string(e) }
func (e transientError) Transient() bool { return true }

// ErrCorrupt reports that a stored or shipped file version fails its block
// addresses.  It is TRANSIENT: the replica is quarantined, not gone —
// another replica can serve the version now, and self-healing can restore
// this copy later — so callers defer and retry rather than giving up.
var ErrCorrupt error = transientError("physical: file data fails its block addresses")

// BlockAddr is the content address of one data block.
type BlockAddr [BlockAddrSize]byte

// String renders the address as 32 hex digits.
func (a BlockAddr) String() string { return hex.EncodeToString(a[:]) }

// HashBlock computes the content address of one block.
func HashBlock(p []byte) BlockAddr {
	sum := sha256.Sum256(p)
	var a BlockAddr
	copy(a[:], sum[:BlockAddrSize])
	return a
}

// zeroBlockAddr is the address of a whole block of zeros: what every block of
// a hole holds.
var zeroBlockAddr = HashBlock(make([]byte, ChecksumBlockSize))

// BlockManifest is the verifiable content summary of one file version: the
// exact length plus one address per ChecksumBlockSize chunk (the final chunk
// may be short; its address covers the short content).
type BlockManifest struct {
	Length uint64
	Blocks []BlockAddr
}

// blockCount returns how many blocks cover length bytes.  (Rounding up by
// adding ChecksumBlockSize-1 first would wrap for lengths near 2^64.)
func blockCount(length uint64) uint64 {
	n := length / ChecksumBlockSize
	if length%ChecksumBlockSize != 0 {
		n++
	}
	return n
}

// blockAt returns the i'th ChecksumBlockSize chunk of data.
func blockAt(data []byte, i int) []byte {
	off := i * ChecksumBlockSize
	return data[off:min(off+ChecksumBlockSize, len(data))]
}

// blockLen is the size of block i of a version length bytes long.
func blockLen(length uint64, i int) int {
	return int(min(length-uint64(i)*ChecksumBlockSize, ChecksumBlockSize))
}

// readBlock reads block i of data member f into b, the block's size.
func readBlock(f vnode.Vnode, b []byte, i int) error {
	n, err := f.ReadAt(b, int64(i)*ChecksumBlockSize)
	if n == len(b) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// ComputeManifest summarizes data.
func ComputeManifest(data []byte) *BlockManifest {
	m := &BlockManifest{Length: uint64(len(data)), Blocks: make([]BlockAddr, blockCount(uint64(len(data))))}
	for i := range m.Blocks {
		m.Blocks[i] = HashBlock(blockAt(data, i))
	}
	return m
}

// wellFormed reports whether the manifest carries exactly the blocks its
// length needs.  Manifests arrive from the wire and from disk; nothing may
// index or allocate by Length before this holds.
func (m *BlockManifest) wellFormed() bool {
	return m != nil && uint64(len(m.Blocks)) == blockCount(m.Length)
}

// Verify reports whether data matches the manifest exactly: same length,
// every block hashing to its address.
func (m *BlockManifest) Verify(data []byte) bool {
	if !m.wellFormed() || uint64(len(data)) != m.Length {
		return false
	}
	for i, want := range m.Blocks {
		if HashBlock(blockAt(data, i)) != want {
			return false
		}
	}
	return true
}

// sidecar is a decoded seal tail; the format keeps the name of the separate
// member it was stored in before it became the aux's tail.
type sidecar struct {
	Sealed vv.Vector
	BlockManifest
}

// encodeSidecar renders a seal tail sealing m under vector sealed.
func encodeSidecar(sealed vv.Vector, m *BlockManifest) []byte {
	return appendSidecar(make([]byte, 0, sidecarLen(sealed, m)), sealed, m)
}

// sidecarLen is the length of the seal tail sealing m under sealed.
func sidecarLen(sealed vv.Vector, m *BlockManifest) int {
	return len(sidecarMagic) + 2 + 4 + 12*sealed.Len() + 8 + BlockAddrSize*len(m.Blocks)
}

func appendSidecar(dst []byte, sealed vv.Vector, m *BlockManifest) []byte {
	dst = append(dst, sidecarMagic...)
	dst = wire.AppendU8(dst, sidecarVersion)
	dst = wire.AppendU8(dst, 0) // no flag is defined
	dst = sealed.AppendBinary(dst)
	dst = wire.AppendU64(dst, m.Length)
	for i := range m.Blocks {
		dst = append(dst, m.Blocks[i][:]...)
	}
	return dst
}

// decodeSidecar parses a seal tail strictly: bad magic, unknown version
// or flag bits, a non-canonical vector, truncation, a block count
// inconsistent with the length, or trailing bytes all fail, so every image
// it accepts re-encodes to the same bytes.
func decodeSidecar(p []byte) (sidecar, error) {
	var sc sidecar
	d := wire.NewDecoder(p)
	if magic := d.Take(len(sidecarMagic)); !bytes.Equal(magic, sidecarMagic) {
		d.Fail("bad sidecar magic %q", magic)
	}
	d.Version(sidecarVersion)
	if flags := d.U8(); flags != 0 {
		d.Fail("unknown sidecar flags %#x", flags)
	}
	sc.Sealed = d.VV()
	sc.Length = d.U64()
	if blocks := blockCount(sc.Length); uint64(d.Len()/BlockAddrSize) != blocks || d.Len()%BlockAddrSize != 0 {
		d.Fail("%d address bytes, length %d needs %d blocks", d.Len(), sc.Length, blocks)
	}
	if d.Err() != nil {
		return sidecar{}, fmt.Errorf("physical: sidecar: %w", d.Err())
	}
	sc.Blocks = make([]BlockAddr, d.Len()/BlockAddrSize)
	for i := range sc.Blocks {
		copy(sc.Blocks[i][:], d.Take(BlockAddrSize))
	}
	return sc, nil
}

// sealLocked commits fid's aux member whole, header a and a tail sealing m
// under a's vector: the scrubber's reseal of an unverifiable copy.
func (l *Layer) sealLocked(cont vnode.Vnode, fid ids.FileID, a *Aux, m *BlockManifest) error {
	return writeAuxFile(atomicReplace, cont, memberName(prefixAux, fid), a, m)
}

// resealInPlace overwrites the tail of aux member af, whose current seal is cur
// (nil when it has none), with one sealing m under vector sealed, which differs
// from the header's: a local update's or an install's seal, made before the
// data changes (the header follows last).  A tail that is not current is cut
// off first: torn inside the vector, the new head on that old tail could spell
// the header's vector above addresses that were never its.  Over a current
// seal, or none, the write needs no shadow, because the seal rule already makes
// every prefix of it harmless.  A crash leaves the new image up to some byte
// and the old one after it (a torn write lands a prefix of a block, blocks are
// written in order, and the header before the tail is rewritten unchanged).
// The two tails first differ inside the vector, which precedes the addresses:
// cut at or before that byte, what is left is the old tail, byte for byte; cut
// anywhere after it, the tail carries a vector that is not the old one — which
// the header still holds — or no longer decodes (a changed entry count shifts
// every later field, a member not yet cut down to its new size has trailing
// bytes).  Both read as unverifiable and the scrubber reseals.  A seal under
// the vector the header already holds must never be written this way — its
// first block alone would make the old addresses current — so the scrubber's
// reseal and an equal-vector install replace the whole member.
func resealInPlace(af vnode.Vnode, cur *sidecar, sealed vv.Vector, m *BlockManifest) error {
	if cur == nil {
		if err := af.Truncate(auxFileSize); err != nil {
			return err
		}
	}
	n := sidecarLen(sealed, m)
	img := appendSidecar(wire.GetBuf(n), sealed, m)
	_, err := af.WriteAt(img, auxFileSize)
	wire.PutBuf(img)
	if err != nil {
		return err
	}
	return af.Truncate(auxFileSize + uint64(n))
}
