// The repl protocol's wire format: two field sequences over internal/wire.
//
// The layout is compact and fixed: big-endian fixed-width integers for ids
// and sizes, uvarints for element counts, and the canonical vv encoding for
// version vectors — anti-entropy generates many small messages, so the
// fixed cost per message is what matters.  Requests are encoded into pooled
// buffers (the bytes are fully consumed by the transport before Call
// returns, so the buffer is safe to recycle); responses are encoded into
// fresh buffers, sized once from their payloads, because ownership transfers
// to the simnet delivery path.
//
// Decoding is wire.Decoder's: sticky-error, strict, and every element count
// capped against the bytes remaining before any allocation (fuzzed in
// codec_test.go).
package repl

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vv"
	"repro/internal/wire"
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

func encodeAux(dst []byte, a physical.Aux) []byte {
	dst = wire.AppendU8(dst, byte(a.Type))
	dst = wire.AppendU32(dst, a.Nlink)
	dst = wire.AppendVol(dst, a.GraftVol)
	return a.VV.AppendBinary(dst)
}

// encodeAddrs writes a run of block addresses: a count and that many
// fixed-width addresses.
func encodeAddrs(dst []byte, addrs []physical.BlockAddr) []byte {
	dst = wire.AppendCount(dst, len(addrs))
	for i := range addrs {
		dst = append(dst, addrs[i][:]...)
	}
	return dst
}

func (r *request) encode(dst []byte) []byte {
	dst = wire.AppendU8(dst, wireVersion)
	dst = wire.AppendU8(dst, byte(r.Op))
	dst = wire.AppendVol(dst, r.Vol)
	dst = wire.AppendU32(dst, uint32(r.Replica))
	dst = wire.AppendPath(dst, r.Dir)
	dst = wire.AppendFID(dst, r.File)
	dst = wire.AppendCount(dst, len(r.Pulls))
	for i := range r.Pulls {
		p := &r.Pulls[i]
		dst = wire.AppendPath(dst, p.Dir)
		dst = wire.AppendFID(dst, p.File)
		dst = wire.AppendBool(dst, p.HasLocal)
		dst = p.LocalVV.AppendBinary(dst)
	}
	return encodeAddrs(dst, r.Have)
}

func (r *response) encode(dst []byte) []byte {
	dst = wire.AppendU8(dst, wireVersion)
	dst = wire.AppendU8(dst, r.Class)
	dst = wire.AppendString(dst, r.Err)
	dst = wire.AppendCount(dst, len(r.Entries))
	for i := range r.Entries {
		e := &r.Entries[i]
		dst = wire.AppendFID(dst, e.EID)
		dst = wire.AppendString(dst, e.Name)
		dst = wire.AppendFID(dst, e.Child)
		dst = wire.AppendU8(dst, byte(e.Kind))
		dst = wire.AppendBool(dst, e.Deleted)
		dst = wire.AppendString(dst, e.Value)
	}
	dst = r.VV.AppendBinary(dst)
	dst = encodeAux(dst, r.Aux)
	dst = wire.AppendU64(dst, r.Size)
	dst = wire.AppendBytes(dst, r.Data)
	dst = wire.AppendCount(dst, len(r.Replicas))
	for _, rep := range r.Replicas {
		dst = wire.AppendU32(dst, uint32(rep))
	}
	dst = wire.AppendCount(dst, len(r.Pulls))
	for i := range r.Pulls {
		p := &r.Pulls[i]
		dst = wire.AppendU8(dst, p.Status)
		dst = wire.AppendU8(dst, p.Class)
		dst = wire.AppendString(dst, p.Err)
		dst = wire.AppendBytes(dst, p.Data)
		dst = encodeAux(dst, p.Aux)
		dst = wire.AppendU64(dst, p.Size)
		dst = p.RemoteVV.AppendBinary(dst)
		dst = wire.AppendBool(dst, p.Manifest != nil)
		if p.Manifest != nil {
			dst = wire.AppendU64(dst, p.Manifest.Length)
			dst = encodeAddrs(dst, p.Manifest.Blocks)
		}
		dst = wire.AppendCount(dst, len(p.Missing))
		for j := range p.Missing {
			dst = append(dst, p.Missing[j].Addr[:]...)
			dst = wire.AppendBytes(dst, p.Missing[j].Data)
		}
	}
	return dst
}

// encodedLen is how many bytes response.encode appends for r, so a reply is
// encoded into a buffer allocated once.  It is exact but for a version vector
// holding a zero counter, which the encoding drops: then it is a bound.
func (r *response) encodedLen() int {
	n := 2 + stringLen(len(r.Err)) + countLen(len(r.Entries))
	for i := range r.Entries {
		e := &r.Entries[i]
		n += 12 + stringLen(len(e.Name)) + 12 + 2 + stringLen(len(e.Value))
	}
	n += vvLen(r.VV) + auxLen(r.Aux) + 8 + stringLen(len(r.Data))
	n += countLen(len(r.Replicas)) + 4*len(r.Replicas) + countLen(len(r.Pulls))
	for i := range r.Pulls {
		p := &r.Pulls[i]
		n += 2 + stringLen(len(p.Err)) + stringLen(len(p.Data)) + auxLen(p.Aux) + 8 + vvLen(p.RemoteVV) + 1
		if p.Manifest != nil {
			n += 8 + countLen(len(p.Manifest.Blocks)) + physical.BlockAddrSize*len(p.Manifest.Blocks)
		}
		n += countLen(len(p.Missing))
		for j := range p.Missing {
			n += physical.BlockAddrSize + stringLen(len(p.Missing[j].Data))
		}
	}
	return n
}

// countLen is the length of n as a uvarint count; stringLen, of a payload of
// n bytes with its length in front.
func countLen(n int) int  { return (bits.Len64(uint64(n)|1) + 6) / 7 }
func stringLen(n int) int { return countLen(n) + n }

// vvLen bounds a version vector's canonical encoding; auxLen, encodeAux's.
func vvLen(v vv.Vector) int     { return 4 + 12*len(v) }
func auxLen(a physical.Aux) int { return 1 + 4 + 8 + vvLen(a.VV) }

// ---- decoding ----------------------------------------------------------

func decodeAux(d *wire.Decoder) physical.Aux {
	return physical.Aux{
		Type:     physical.Kind(d.U8()),
		Nlink:    d.U32(),
		GraftVol: d.Vol(),
		VV:       d.VV(),
	}
}

func decodeAddrs(d *wire.Decoder) []physical.BlockAddr {
	n := d.Count(physical.BlockAddrSize)
	if n == 0 {
		return nil
	}
	addrs := make([]physical.BlockAddr, n)
	for i := range addrs {
		copy(addrs[i][:], d.Take(physical.BlockAddrSize))
	}
	return addrs
}

func decodeRequest(b []byte) (*request, error) {
	d := wire.NewDecoder(b)
	d.Version(wireVersion)
	var req request
	req.Op = opCode(d.U8())
	req.Vol = d.Vol()
	req.Replica = ids.ReplicaID(d.U32())
	req.Dir = d.Path()
	req.File = d.FID()
	// A pull entry is at least empty path(1) + fid(12) + hasLocal(1) +
	// empty vv(4).
	if n := d.Count(18); n > 0 {
		req.Pulls = make([]physical.PullRequest, n)
		for i := range req.Pulls {
			p := &req.Pulls[i]
			p.Dir = d.Path()
			p.File = d.FID()
			p.HasLocal = d.Bool()
			p.LocalVV = d.VV()
		}
	}
	req.Have = decodeAddrs(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("repl: bad request: %w", err)
	}
	return &req, nil
}

func decodeResponse(b []byte) (*response, error) {
	d := wire.NewDecoder(b)
	d.Version(wireVersion)
	var resp response
	resp.Class = d.U8()
	resp.Err = d.Str()
	// A directory entry is at least two fids(24) + kind(1) + deleted(1)
	// + two empty strings(2).
	if n := d.Count(28); n > 0 {
		resp.Entries = make([]physical.Entry, n)
		for i := range resp.Entries {
			e := &resp.Entries[i]
			e.EID = d.FID()
			e.Name = d.Str()
			e.Child = d.FID()
			e.Kind = physical.Kind(d.U8())
			e.Deleted = d.Bool()
			e.Value = d.Str()
		}
	}
	resp.VV = d.VV()
	resp.Aux = decodeAux(d)
	resp.Size = d.U64()
	resp.Data = d.Bytes()
	if n := d.Count(4); n > 0 {
		resp.Replicas = make([]ids.ReplicaID, n)
		for i := range resp.Replicas {
			resp.Replicas[i] = ids.ReplicaID(d.U32())
		}
	}
	// A pull result is at least status(1) + class(1) + empty err(1) +
	// empty data(1) + aux(13+4) + size(8) + empty vv(4) + manifest flag(1) +
	// missing count(1).
	if n := d.Count(35); n > 0 {
		resp.Pulls = make([]wirePull, n)
		for i := range resp.Pulls {
			p := &resp.Pulls[i]
			p.Status = d.U8()
			p.Class = d.U8()
			p.Err = d.Str()
			p.Data = d.Bytes()
			p.Aux = decodeAux(d)
			p.Size = d.U64()
			p.RemoteVV = d.VV()
			if d.Bool() {
				p.Manifest = &physical.BlockManifest{Length: d.U64(), Blocks: decodeAddrs(d)}
			}
			if m := d.Count(physical.BlockAddrSize + 1); m > 0 {
				p.Missing = make([]physical.Block, m)
				for j := range p.Missing {
					copy(p.Missing[j].Addr[:], d.Take(physical.BlockAddrSize))
					p.Missing[j].Data = d.Bytes()
				}
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("repl: bad response: %w", err)
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
