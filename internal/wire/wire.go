// Package wire is the one codec every message and journal record in the
// tree is written and read with.  A format is nothing but a field sequence
// over it: the append family writes big-endian fixed-width integers, one
// byte per bool, uvarint element counts and the canonical vv encoding, and
// the one Decoder reads them back.
//
// The Decoder is sticky-error and bounds-checked: the first failure sticks
// and every later read returns zeros, so a decode function runs its whole
// field sequence and checks Finish once; every element count is capped
// against the bytes actually remaining before anything is allocated, so a
// corrupt or adversarial message fails cleanly instead of panicking or
// allocating memory the input could never back.
//
// The Decoder is also strict: a bool byte other than 0 or 1, an element
// count that is not the shortest uvarint for its value, a version vector
// carrying a zero counter and bytes left after the last field all fail.
// Every image a decoder accepts therefore re-encodes to the same bytes,
// which is the one oracle every format's fuzz target checks.
//
// The package imports only ids and vv; composite values (physical.Aux,
// block addresses, vnode.Attr) are encodeX/decodeX(d *wire.Decoder)
// helpers beside the format that carries them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/vv"
)

// fidSize is the encoded size of a file id: issuer u32 + sequence u64.
const fidSize = 12

// ---- encoding ----------------------------------------------------------

// AppendU8, AppendU16, AppendU32 and AppendU64 write a big-endian
// fixed-width integer.
func AppendU8(dst []byte, v byte) []byte    { return append(dst, v) }
func AppendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendBool writes one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendCount writes an element count (or byte length) as a uvarint.
func AppendCount(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// AppendBytes writes a length-prefixed payload.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendCount(dst, len(b))
	return append(dst, b...)
}

// AppendString writes a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendCount(dst, len(s))
	return append(dst, s...)
}

// AppendFID writes a file id: issuer u32, sequence u64.
func AppendFID(dst []byte, f ids.FileID) []byte {
	dst = AppendU32(dst, uint32(f.Issuer))
	return AppendU64(dst, f.Seq)
}

// AppendPath writes a directory path: a count and that many file ids.
func AppendPath(dst []byte, p []ids.FileID) []byte {
	dst = AppendCount(dst, len(p))
	for _, f := range p {
		dst = AppendFID(dst, f)
	}
	return dst
}

// AppendVol writes a volume handle: allocator u32, volume u32.
func AppendVol(dst []byte, v ids.VolumeHandle) []byte {
	dst = AppendU32(dst, uint32(v.Allocator))
	return AppendU32(dst, uint32(v.Volume))
}

// ---- decoding ----------------------------------------------------------

// Decoder consumes one message front to back.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads b; it keeps no reference past the last read except the
// slices Take hands out.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Fail records the first failure; later ones are dropped.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Err returns the first failure, nil while every read has succeeded.
func (d *Decoder) Err() error { return d.err }

// Len returns the bytes not yet consumed.
func (d *Decoder) Len() int { return len(d.b) }

// Finish is the end of a field sequence: the first failure, or an error if
// bytes remain after the last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Take returns the next n bytes without copying them, nil after a failure.
// Running short is recorded as a fixed error, not a formatted one, so that
// Take — and with it every fixed-width read — is small enough to inline: a
// directory contents file is decoded on every lookup.
func (d *Decoder) Take(n int) []byte {
	if d.err == nil && uint(n) <= uint(len(d.b)) {
		b := d.b[:n]
		d.b = d.b[n:]
		return b
	}
	if d.err == nil {
		d.err = errShort
	}
	return nil
}

var errShort = errors.New("wire: message truncated")

// U8, U16, U32 and U64 read a big-endian fixed-width integer.
func (d *Decoder) U8() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("bool byte %d", v)
		return false
	}
	return v == 1
}

// Version reads the leading version byte and fails on any but want: a
// format has one version and no negotiation.
func (d *Decoder) Version(want byte) {
	if v := d.U8(); d.err == nil && v != want {
		d.Fail("version %d, want %d", v, want)
	}
}

// Count reads an element count and caps it against the bytes remaining
// (each element occupies at least minSize bytes), so a corrupt length
// cannot drive an allocation the message could never back.
func (d *Decoder) Count(minSize int) int {
	if d.err != nil {
		return 0
	}
	n, used := binary.Uvarint(d.b)
	if used <= 0 {
		d.Fail("bad uvarint count")
		return 0
	}
	if used > 1 && d.b[used-1] == 0 {
		d.Fail("non-minimal uvarint count")
		return 0
	}
	d.b = d.b[used:]
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.b)/minSize) {
		d.Fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed payload into a fresh slice; an empty
// payload decodes to nil, not []byte{}.
func (d *Decoder) Bytes() []byte {
	b := d.Take(d.Count(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Take(d.Count(1))) }

// FID reads a file id.
func (d *Decoder) FID() ids.FileID {
	return ids.FileID{Issuer: ids.ReplicaID(d.U32()), Seq: d.U64()}
}

// Path reads a directory path; an empty one decodes to nil.
func (d *Decoder) Path() []ids.FileID {
	n := d.Count(fidSize)
	if n == 0 {
		return nil
	}
	p := make([]ids.FileID, n)
	for i := range p {
		p[i] = d.FID()
	}
	return p
}

// Vol reads a volume handle.
func (d *Decoder) Vol() ids.VolumeHandle {
	return ids.VolumeHandle{Allocator: ids.AllocatorID(d.U32()), Volume: ids.VolumeID(d.U32())}
}

// VV reads a version vector in its canonical encoding.  vv.DecodeFrom
// drops zero counters, which the encoder never writes; a vector shorter
// than the bytes it consumed carried one.
func (d *Decoder) VV() vv.Vector {
	if d.err != nil {
		return nil
	}
	v, used, err := vv.DecodeFrom(d.b)
	if err != nil {
		d.Fail("%v", err)
		return nil
	}
	if used != 4+12*len(v) {
		d.Fail("version vector carries a zero counter")
		return nil
	}
	d.b = d.b[used:]
	return v
}
