// Package wire is the one codec every message and on-disk record in the
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
// The package imports only ids, vv and invariant; composite values
// (physical.Aux, block addresses, vnode.Attr) are encodeX/decodeX(d
// *wire.Decoder) helpers beside the format that carries them.
//
// Messages are encoded into buffers lent by one bounded pool (GetBuf,
// PutBuf), filed by power-of-two capacity class.  It is the tree's one
// buffer pool: the NFS and replication protocols, the physical layer's lent
// reads and the UFS buffer cache's blocks all come from it (DESIGN.md §9.2).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/invariant"
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

// StrIn reads a length-prefixed string through in, which hands back the
// string it holds for bytes it has seen; a nil in is Str.
func (d *Decoder) StrIn(in *Interner) string {
	b := d.Take(d.Count(1))
	if in == nil {
		return string(b)
	}
	return in.Intern(b)
}

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
		return vv.Vector{}
	}
	v, used, err := vv.DecodeFrom(d.b)
	if err != nil {
		d.Fail("%v", err)
		return vv.Vector{}
	}
	if used != 4+12*v.Len() {
		d.Fail("version vector carries a zero counter")
		return vv.Vector{}
	}
	d.b = d.b[used:]
	return v
}

// ---- interning ---------------------------------------------------------

// Interner keeps one string per byte sequence it is handed, so a decoder
// that reads the same handle or name in message after message makes the
// string once: the probe, m[string(b)], allocates nothing.  It is bounded:
// a new string that finds it holding capacity strings empties it first.  A
// string it hands out is an ordinary string, never a view of the message.  It
// is safe for concurrent use.
type Interner struct {
	mu       sync.Mutex
	capacity int
	m        map[string]string
}

// NewInterner returns an empty interner holding at most capacity strings.
func NewInterner(capacity int) *Interner {
	return &Interner{capacity: capacity, m: make(map[string]string)}
}

// Intern returns a string equal to b: the one it holds, or b copied, which it
// then holds.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) >= in.capacity {
		clear(in.m)
	}
	in.m[s] = s
	return s
}

// ---- buffer pool -------------------------------------------------------

// The pool lends buffers — to message encoders and to the UFS buffer cache,
// whose blocks they become — and takes them back once their bytes have been
// read.  It files a buffer by capacity class, a power of two from minBuf to
// maxPooled: GetBuf(n) pops from the least class that holds n bytes, or makes
// a buffer of that class's size, and PutBuf files a buffer under the largest
// class its capacity covers, so neither looks past one class.  It is bounded
// twice: a class holds at most classBufs buffers, and a buffer over maxPooled
// is made to measure and never kept, so one huge message pins no memory.
// Whoever holds a buffer owns it until PutBuf; nothing may read or write a
// view of it afterwards (DESIGN.md §9.2).
//
// Under FICUS_INVARIANTS=1 the pool checks that rule.  A returned buffer is
// overwritten with Poison, so a view kept past its return reads bytes no
// writer puts there; a buffer the pool keeps must still be all Poison when it
// is lent again, so a write through such a view fails an invariant; and
// returning a buffer the pool holds fails one too.  Only a buffer poisoned on its return
// is checked, whether or not invariants are armed when it is lent.
const (
	minShift, maxShift = 8, 16
	minBuf             = 1 << minShift // the least class
	maxPooled          = 1 << maxShift // the largest class
	classBufs          = 256           // the most buffers one class holds

	// Poison is what every byte of a buffer the pool holds reads under
	// FICUS_INVARIANTS=1.
	Poison = 0xdb
)

var pool struct {
	mu       sync.Mutex
	classes  [maxShift - minShift + 1][][]byte // each buffer at its full capacity
	poisoned map[*byte]struct{}                // the held buffers PutBuf poisoned
}

// GetBuf returns an empty buffer with room for at least n bytes.
func GetBuf(n int) []byte {
	if n > maxPooled {
		return make([]byte, 0, n)
	}
	c := 0
	if n > minBuf {
		c = bits.Len(uint(n-1)) - minShift
	}
	pool.mu.Lock()
	held := pool.classes[c]
	if len(held) == 0 {
		pool.mu.Unlock()
		return make([]byte, 0, minBuf<<c)
	}
	b := held[len(held)-1]
	held[len(held)-1] = nil
	pool.classes[c] = held[:len(held)-1]
	_, poisoned := pool.poisoned[unsafe.SliceData(b)]
	if poisoned {
		delete(pool.poisoned, unsafe.SliceData(b))
	}
	pool.mu.Unlock()
	if poisoned && slices.ContainsFunc(b, func(v byte) bool { return v != Poison }) {
		invariant.Failf("wire: a buffer was written to after it was returned")
	}
	return b[:0]
}

// PutBuf returns b, which came from GetBuf (or grew from a buffer that did),
// to the pool.  From here on b and every view of it belong to the pool.
func PutBuf(b []byte) {
	if cap(b) < minBuf || cap(b) > maxPooled {
		return
	}
	b = b[:cap(b)]
	c := bits.Len(uint(cap(b))) - 1 - minShift
	poisoned := invariant.Enabled()
	if poisoned {
		for i := range b {
			b[i] = Poison
		}
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if _, held := pool.poisoned[unsafe.SliceData(b)]; held {
		invariant.Failf("wire: a buffer was returned twice")
	}
	if len(pool.classes[c]) == classBufs {
		return
	}
	if poisoned {
		if pool.poisoned == nil {
			pool.poisoned = make(map[*byte]struct{})
		}
		pool.poisoned[unsafe.SliceData(b)] = struct{}{}
	}
	pool.classes[c] = append(pool.classes[c], b)
}
