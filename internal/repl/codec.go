// Hand-rolled wire codec for the repl protocol.
//
// The original transport gob-encoded every message with a fresh encoder,
// which re-transmits full type metadata on each call — a large fixed tax on
// the many small messages anti-entropy generates.  This codec writes a
// compact fixed layout instead: big-endian fixed-width integers for ids and
// sizes, uvarints for element counts, and the canonical vv encoding for
// version vectors.  Requests are encoded into pooled buffers (the bytes are
// fully consumed by the transport before Call returns, so the buffer is
// safe to recycle); responses are encoded into fresh buffers because
// ownership transfers to the simnet delivery path.
//
// The decoder is sticky-error and bounds-checked: every element count is
// capped against the bytes actually remaining before any allocation, so a
// corrupt or adversarial message fails cleanly instead of panicking or
// allocating unbounded memory (fuzzed in codec_test.go).
package repl

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vv"
)

// A wire version byte leads every message; any other version fails loudly
// instead of misparsing.  Every pull answer carries the version's block
// manifest, the receiver's verifier; a pull request carries the puller's
// held-block advertisement (possibly empty), and an answer to a non-empty one
// carries the missing blocks instead of full data.
const wireVersion = 3

// Error classes carried in responses so the client can rebuild an error of
// the right kind (sentinel identity and transience survive the wire).
const (
	classOK        = 0 // no error
	classPermanent = 1 // remote permanent failure; Err carries the message
	classTransient = 2 // remote transient failure; worth backing off and retrying
	classNotStored = 3 // physical.ErrNotStored at the peer
	classNoReplica = 4 // peer serves no such volume replica
)

// ---- encoding ----------------------------------------------------------

func appendU8(dst []byte, v byte) []byte    { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendCount(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

func appendBytes(dst, b []byte) []byte {
	dst = appendCount(dst, len(b))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendCount(dst, len(s))
	return append(dst, s...)
}

func appendFID(dst []byte, f ids.FileID) []byte {
	dst = appendU32(dst, uint32(f.Issuer))
	return appendU64(dst, f.Seq)
}

func appendPath(dst []byte, p []ids.FileID) []byte {
	dst = appendCount(dst, len(p))
	for _, f := range p {
		dst = appendFID(dst, f)
	}
	return dst
}

func appendVol(dst []byte, v ids.VolumeHandle) []byte {
	dst = appendU32(dst, uint32(v.Allocator))
	return appendU32(dst, uint32(v.Volume))
}

func appendAux(dst []byte, a physical.Aux) []byte {
	dst = appendU8(dst, byte(a.Type))
	dst = appendU32(dst, a.Nlink)
	dst = appendVol(dst, a.GraftVol)
	return a.VV.AppendBinary(dst)
}

func (r *request) encode(dst []byte) []byte {
	dst = appendU8(dst, wireVersion)
	dst = appendU8(dst, byte(r.Op))
	dst = appendVol(dst, r.Vol)
	dst = appendU32(dst, uint32(r.Replica))
	dst = appendPath(dst, r.Dir)
	dst = appendFID(dst, r.File)
	dst = appendCount(dst, len(r.Pulls))
	for i := range r.Pulls {
		p := &r.Pulls[i]
		dst = appendPath(dst, p.Dir)
		dst = appendFID(dst, p.File)
		dst = appendBool(dst, p.HasLocal)
		dst = p.LocalVV.AppendBinary(dst)
	}
	dst = appendCount(dst, len(r.Have))
	for i := range r.Have {
		dst = append(dst, r.Have[i][:]...)
	}
	return dst
}

func (r *response) encode(dst []byte) []byte {
	dst = appendU8(dst, wireVersion)
	dst = appendU8(dst, r.Class)
	dst = appendString(dst, r.Err)
	dst = appendCount(dst, len(r.Entries))
	for i := range r.Entries {
		e := &r.Entries[i]
		dst = appendFID(dst, e.EID)
		dst = appendString(dst, e.Name)
		dst = appendFID(dst, e.Child)
		dst = appendU8(dst, byte(e.Kind))
		dst = appendBool(dst, e.Deleted)
		dst = appendString(dst, e.Value)
	}
	dst = r.VV.AppendBinary(dst)
	dst = appendAux(dst, r.Aux)
	dst = appendU64(dst, r.Size)
	dst = appendBytes(dst, r.Data)
	dst = appendCount(dst, len(r.Replicas))
	for _, rep := range r.Replicas {
		dst = appendU32(dst, uint32(rep))
	}
	dst = appendCount(dst, len(r.Pulls))
	for i := range r.Pulls {
		p := &r.Pulls[i]
		dst = appendU8(dst, p.Status)
		dst = appendU8(dst, p.Class)
		dst = appendString(dst, p.Err)
		dst = appendBytes(dst, p.Data)
		dst = appendAux(dst, p.Aux)
		dst = appendU64(dst, p.Size)
		dst = p.RemoteVV.AppendBinary(dst)
		dst = appendBool(dst, p.Manifest != nil)
		if p.Manifest != nil {
			dst = appendU64(dst, p.Manifest.Length)
			dst = appendCount(dst, len(p.Manifest.Blocks))
			for j := range p.Manifest.Blocks {
				dst = append(dst, p.Manifest.Blocks[j][:]...)
			}
		}
		dst = appendCount(dst, len(p.Missing))
		for j := range p.Missing {
			dst = append(dst, p.Missing[j].Addr[:]...)
			dst = appendBytes(dst, p.Missing[j].Data)
		}
	}
	return dst
}

// ---- decoding ----------------------------------------------------------

// decoder consumes one message front to back.  The first failure sticks:
// every later read returns zero values, so decode functions can run the
// full field sequence and check err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("repl: bad message: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("want %d bytes, have %d", n, len(d.b))
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) bool() bool { return d.u8() != 0 }

// count reads an element count and caps it against the bytes remaining
// (each element occupies at least minSize bytes), so a corrupt length
// cannot drive an allocation the message could never back.
func (d *decoder) count(minSize int) int {
	if d.err != nil {
		return 0
	}
	n, used := binary.Uvarint(d.b)
	if used <= 0 {
		d.fail("bad uvarint count")
		return 0
	}
	d.b = d.b[used:]
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(d.b)/minSize) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil // canonical: empty payloads decode to nil, not []byte{}
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *decoder) str() string {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) fid() ids.FileID {
	return ids.FileID{Issuer: ids.ReplicaID(d.u32()), Seq: d.u64()}
}

func (d *decoder) path() []ids.FileID {
	n := d.count(12)
	if n == 0 {
		return nil
	}
	p := make([]ids.FileID, n)
	for i := range p {
		p[i] = d.fid()
	}
	return p
}

func (d *decoder) vol() ids.VolumeHandle {
	return ids.VolumeHandle{Allocator: ids.AllocatorID(d.u32()), Volume: ids.VolumeID(d.u32())}
}

func (d *decoder) vvec() vv.Vector {
	if d.err != nil {
		return nil
	}
	v, used, err := vv.DecodeFrom(d.b)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.b = d.b[used:]
	return v
}

func (d *decoder) aux() physical.Aux {
	return physical.Aux{
		Type:     physical.Kind(d.u8()),
		Nlink:    d.u32(),
		GraftVol: d.vol(),
		VV:       d.vvec(),
	}
}

func (d *decoder) version() {
	if v := d.u8(); d.err == nil && v != wireVersion {
		d.fail("wire version %d, want %d", v, wireVersion)
	}
}

func decodeRequest(b []byte) (*request, error) {
	d := &decoder{b: b}
	d.version()
	var req request
	req.Op = opCode(d.u8())
	req.Vol = d.vol()
	req.Replica = ids.ReplicaID(d.u32())
	req.Dir = d.path()
	req.File = d.fid()
	// A pull entry is at least fid(12) + hasLocal(1) + empty vv(4).
	n := d.count(17)
	if n > 0 {
		req.Pulls = make([]physical.PullRequest, n)
		for i := range req.Pulls {
			p := &req.Pulls[i]
			p.Dir = d.path()
			p.File = d.fid()
			p.HasLocal = d.bool()
			p.LocalVV = d.vvec()
		}
	}
	if n = d.count(physical.BlockAddrSize); n > 0 {
		req.Have = make([]physical.BlockAddr, n)
		for i := range req.Have {
			copy(req.Have[i][:], d.take(physical.BlockAddrSize))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("repl: bad message: %d trailing bytes", len(d.b))
	}
	return &req, nil
}

func decodeResponse(b []byte) (*response, error) {
	d := &decoder{b: b}
	d.version()
	var resp response
	resp.Class = d.u8()
	resp.Err = d.str()
	// A directory entry is at least two fids(24) + kind(1) + deleted(1)
	// + two empty strings(2).
	n := d.count(28)
	if n > 0 {
		resp.Entries = make([]physical.Entry, n)
		for i := range resp.Entries {
			e := &resp.Entries[i]
			e.EID = d.fid()
			e.Name = d.str()
			e.Child = d.fid()
			e.Kind = physical.Kind(d.u8())
			e.Deleted = d.bool()
			e.Value = d.str()
		}
	}
	resp.VV = d.vvec()
	resp.Aux = d.aux()
	resp.Size = d.u64()
	resp.Data = d.bytes()
	n = d.count(4)
	if n > 0 {
		resp.Replicas = make([]ids.ReplicaID, n)
		for i := range resp.Replicas {
			resp.Replicas[i] = ids.ReplicaID(d.u32())
		}
	}
	// A pull result is at least status(1) + class(1) + empty err(1) +
	// empty data(1) + aux(13+4) + size(8) + empty vv(4) + manifest flag(1) +
	// missing count(1).
	n = d.count(35)
	if n > 0 {
		resp.Pulls = make([]wirePull, n)
		for i := range resp.Pulls {
			p := &resp.Pulls[i]
			p.Status = d.u8()
			p.Class = d.u8()
			p.Err = d.str()
			p.Data = d.bytes()
			p.Aux = d.aux()
			p.Size = d.u64()
			p.RemoteVV = d.vvec()
			if d.bool() {
				man := &physical.BlockManifest{Length: d.u64()}
				if m := d.count(physical.BlockAddrSize); m > 0 {
					man.Blocks = make([]physical.BlockAddr, m)
					for j := range man.Blocks {
						copy(man.Blocks[j][:], d.take(physical.BlockAddrSize))
					}
				}
				p.Manifest = man
			}
			if m := d.count(physical.BlockAddrSize + 1); m > 0 {
				p.Missing = make([]physical.Block, m)
				for j := range p.Missing {
					copy(p.Missing[j].Addr[:], d.take(physical.BlockAddrSize))
					p.Missing[j].Data = d.bytes()
				}
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("repl: bad message: %d trailing bytes", len(d.b))
	}
	return &resp, nil
}

// ---- request buffer pool ----------------------------------------------

// bufPool recycles request-encoding buffers.  Only the client request path
// uses it: simnet copies the request bytes into the delivery before Call
// returns, so the buffer can be recycled immediately after.  Response
// buffers are NOT pooled — their bytes are handed to the transport and
// owned by the receiving side.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	const maxPooled = 1 << 16 // don't let one huge batch pin memory
	if cap(*b) > maxPooled {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
