// Package nfs implements the stateless NFS-like transport layer that Ficus
// uses between remotely located layers (paper §2.2): "NFS is essentially a
// host-to-host transport service with a vnode interface."
//
// The reproduction deliberately preserves the quirks the paper fights:
//
//   - The protocol has no open or close operations.  A client's Open/Close
//     return success without forwarding anything, so "a layer intending to
//     receive an open will never get it if NFS is in between."  The Ficus
//     logical layer works around this by encoding open/close requests as
//     specially formatted names passed through Lookup (§2.3); the NFS layer
//     forwards those strings "without interpretation or interference."
//
//   - The client caches attributes and name lookups.  The caches are on by
//     default and can serve stale results, reproducing the "unexpected
//     behavior for layers which are not able to adopt the assumptions
//     inherent in the NFS cache management policies."
//
//   - The server is stateless: every request carries a file handle that is
//     re-resolved per operation, and handles can go stale (ESTALE).
package nfs

import (
	"fmt"

	"repro/internal/vnode"
	"repro/internal/wire"
)

// Op is a wire operation code.  Note the absence of open and close.
type Op uint8

// Wire operations.
const (
	OpRoot Op = iota
	OpLookup
	OpCreate
	OpMkdir
	OpSymlink
	OpReadlink
	OpRead
	OpWrite
	OpTruncate
	OpFsync
	OpGetattr
	OpSetattr
	OpAccess
	OpRemove
	OpRmdir
	OpLink
	OpRename
	OpReaddir
	opEnd // one past the last op: a test sends every op below it to a server
)

var opNames = map[Op]string{
	OpRoot: "root", OpLookup: "lookup", OpCreate: "create", OpMkdir: "mkdir",
	OpSymlink: "symlink", OpReadlink: "readlink", OpRead: "read",
	OpWrite: "write", OpTruncate: "truncate", OpFsync: "fsync",
	OpGetattr: "getattr", OpSetattr: "setattr", OpAccess: "access",
	OpRemove: "remove", OpRmdir: "rmdir", OpLink: "link",
	OpRename: "rename", OpReaddir: "readdir",
}

// String names the op.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Request is one wire request.  Fields are used according to Op.
type Request struct {
	Op      Op
	Handle  string // subject vnode
	Name    string // Lookup/Create/Mkdir/Symlink/Remove/Rmdir/Link/Rename source name
	Name2   string // Rename destination name
	Handle2 string // Link target / Rename destination directory
	Target  string // Symlink target
	Excl    bool   // Create exclusivity
	Off     int64  // Read/Write offset
	Len     uint32 // Read length, at most maxRead
	Data    []byte // Write payload
	Size    uint64 // Truncate size
	HasMode bool   // Setattr
	Mode    uint16 // Setattr/Access
	HasSize bool   // Setattr
}

// Response is one wire response.
type Response struct {
	Errno  int // vnode.Errno code; 0 means success
	Handle string
	Attr   vnode.Attr
	N      int
	EOF    bool
	Data   []byte
	Str    string
	Ents   []vnode.Dirent
}

// Service is the simnet RPC service name NFS traffic travels on.
const Service = "nfs"

// cacheEntries bounds each of the client's two caches.
const cacheEntries = 512

// maxRead is the most bytes one read request may ask for.  The server sizes
// its read buffer from the request, so a longer length fails to decode, like
// any other malformed request.
const maxRead = 1 << 24

// wireVersion leads every request and response; any other value is rejected.
const wireVersion = 1

// Both messages have one flat layout for every op — the struct above, field
// by field — so there is one encoder, one decoder and one fuzz oracle
// instead of one per op.  Every integer is fixed width: a counting metric
// over these bytes cannot drift with the values carried.

func (r *Request) encode() []byte {
	dst := make([]byte, 0, 48+len(r.Handle)+len(r.Name)+len(r.Name2)+len(r.Handle2)+len(r.Target)+len(r.Data))
	dst = wire.AppendU8(dst, wireVersion)
	dst = wire.AppendU8(dst, byte(r.Op))
	dst = wire.AppendString(dst, r.Handle)
	dst = wire.AppendString(dst, r.Name)
	dst = wire.AppendString(dst, r.Name2)
	dst = wire.AppendString(dst, r.Handle2)
	dst = wire.AppendString(dst, r.Target)
	dst = wire.AppendBool(dst, r.Excl)
	dst = wire.AppendU64(dst, uint64(r.Off))
	dst = wire.AppendU32(dst, r.Len)
	dst = wire.AppendBytes(dst, r.Data)
	dst = wire.AppendU64(dst, r.Size)
	dst = wire.AppendBool(dst, r.HasMode)
	dst = wire.AppendU16(dst, r.Mode)
	return wire.AppendBool(dst, r.HasSize)
}

func decodeRequest(b []byte) (*Request, error) {
	d := wire.NewDecoder(b)
	d.Version(wireVersion)
	var r Request
	r.Op = Op(d.U8())
	r.Handle = d.Str()
	r.Name = d.Str()
	r.Name2 = d.Str()
	r.Handle2 = d.Str()
	r.Target = d.Str()
	r.Excl = d.Bool()
	r.Off = int64(d.U64())
	if r.Len = d.U32(); r.Len > maxRead {
		d.Fail("read length %d exceeds %d", r.Len, maxRead)
	}
	r.Data = d.Bytes()
	r.Size = d.U64()
	r.HasMode = d.Bool()
	r.Mode = d.U16()
	r.HasSize = d.Bool()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("nfs: bad request: %w", err)
	}
	return &r, nil
}

func encodeAttr(dst []byte, a vnode.Attr) []byte {
	dst = wire.AppendU8(dst, byte(a.Type))
	dst = wire.AppendU16(dst, a.Mode)
	dst = wire.AppendU32(dst, a.Nlink)
	dst = wire.AppendU64(dst, a.Size)
	dst = wire.AppendU64(dst, a.Mtime)
	dst = wire.AppendU64(dst, a.Ctime)
	dst = wire.AppendString(dst, a.FileID)
	return wire.AppendString(dst, a.GraftVol)
}

func decodeAttr(d *wire.Decoder) vnode.Attr {
	return vnode.Attr{
		Type:     vnode.VType(d.U8()),
		Mode:     d.U16(),
		Nlink:    d.U32(),
		Size:     d.U64(),
		Mtime:    d.U64(),
		Ctime:    d.U64(),
		FileID:   d.Str(),
		GraftVol: d.Str(),
	}
}

func (r *Response) encode() []byte {
	dst := make([]byte, 0, 64+len(r.Handle)+len(r.Attr.FileID)+len(r.Data)+len(r.Str)+32*len(r.Ents))
	dst = wire.AppendU8(dst, wireVersion)
	dst = wire.AppendU32(dst, uint32(r.Errno))
	dst = wire.AppendString(dst, r.Handle)
	dst = encodeAttr(dst, r.Attr)
	dst = wire.AppendU32(dst, uint32(r.N))
	dst = wire.AppendBool(dst, r.EOF)
	dst = wire.AppendBytes(dst, r.Data)
	dst = wire.AppendString(dst, r.Str)
	dst = wire.AppendCount(dst, len(r.Ents))
	for i := range r.Ents {
		e := &r.Ents[i]
		dst = wire.AppendString(dst, e.Name)
		dst = wire.AppendString(dst, e.FileID)
		dst = wire.AppendU8(dst, byte(e.Type))
		dst = wire.AppendString(dst, e.Value)
	}
	return dst
}

func decodeResponse(b []byte) (*Response, error) {
	d := wire.NewDecoder(b)
	d.Version(wireVersion)
	var r Response
	r.Errno = int(d.U32())
	r.Handle = d.Str()
	r.Attr = decodeAttr(d)
	r.N = int(d.U32())
	r.EOF = d.Bool()
	if data := d.Take(d.Count(1)); len(data) > 0 {
		r.Data = data // a view of b, which the caller owns: read data is copied once, into the reader's buffer
	}
	r.Str = d.Str()
	// A directory entry is at least three empty strings(3) + type(1).
	if n := d.Count(4); n > 0 {
		r.Ents = make([]vnode.Dirent, n)
		for i := range r.Ents {
			e := &r.Ents[i]
			e.Name = d.Str()
			e.FileID = d.Str()
			e.Type = vnode.VType(d.U8())
			e.Value = d.Str()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("nfs: bad response: %w", err)
	}
	return &r, nil
}

// A read reply is built around its data, which the server reads straight into
// the reply buffer at readReplyRoom: the header goes in front once the count
// is known, the empty fields after.  The bytes are Response.encode's.
var readReplyRoom = len(readReplyHead(nil, maxRead, false))

// readReplyHead appends what the reply to a read of n bytes carries before them.
func readReplyHead(dst []byte, n int, eof bool) []byte {
	dst = wire.AppendU8(dst, wireVersion)
	dst = wire.AppendU32(dst, 0)
	dst = wire.AppendString(dst, "")
	dst = encodeAttr(dst, vnode.Attr{})
	dst = wire.AppendU32(dst, uint32(n))
	dst = wire.AppendBool(dst, eof)
	return wire.AppendCount(dst, n)
}

// readReplyTail is what a read reply carries after its data: an empty Str and
// no directory entries.
const readReplyTail = 2

// encodeReadReply finishes the reply to a read whose n bytes are at
// buf[readReplyRoom:]; buf has room for readReplyTail more.  It returns, in
// place, the encoding of the Response carrying N = n, EOF = eof and those
// bytes as Data.
func encodeReadReply(buf []byte, n int, eof bool) []byte {
	var head [64]byte
	h := readReplyHead(head[:0], n, eof)
	start := readReplyRoom - len(h)
	copy(buf[start:], h)
	out := wire.AppendString(buf[start:readReplyRoom+n], "")
	return wire.AppendCount(out, 0)
}

// errnoOf converts a response code back into a Go error (nil on success).
func errnoOf(code int) error {
	if code == 0 {
		return nil
	}
	return vnode.ErrnoFromCode(code)
}

// respErr builds an error response from any error, collapsing it to the
// canonical vocabulary first.  io.EOF on reads is carried in Response.EOF,
// not here.
func respErr(err error) Response {
	return Response{Errno: vnode.AsErrno(err).Code()}
}
