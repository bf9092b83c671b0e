// Package repl is a ficusvet test fixture for the wiresym analyzer: every
// encode function must write exactly the token stream its decode
// counterpart reads, and every opcode constant must be dispatched.
package repl

import (
	"encoding/binary"

	"repro/internal/wire"
)

// --- known-good: symmetric pairs -----------------------------------------

type ping struct {
	seq  uint32
	site uint64
	note []byte
}

func (p *ping) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, p.seq)
	b = binary.BigEndian.AppendUint64(b, p.site)
	b = binary.AppendUvarint(b, uint64(len(p.note)))
	b = append(b, p.note...)
	return b
}

func decodePing(d *wire.Decoder) ping {
	var p ping
	p.seq = d.U32()
	p.site = d.U64()
	n := d.Count(1)
	p.note = d.Take(n)
	return p
}

type roster struct {
	ids []uint32
}

func (r *roster) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.ids)))
	for _, id := range r.ids {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return b
}

func decodeRoster(d *wire.Decoder) roster {
	var r roster
	n := d.Count(1)
	for i := 0; i < n; i++ {
		r.ids = append(r.ids, d.U32())
	}
	return r
}

// --- known-bad: drifted pairs --------------------------------------------

type summary struct {
	gen   uint16
	count uint32
}

func (s *summary) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, s.gen) // want: decode reads u32 here
	b = binary.BigEndian.AppendUint32(b, s.count)
	return b
}

func decodeSummary(d *wire.Decoder) summary {
	var s summary
	s.gen = uint16(d.U32()) // drifted from u16 when the field widened
	s.count = d.U32()
	return s
}

func encodeTrailer(b []byte, gen, crc uint32) []byte {
	b = binary.BigEndian.AppendUint32(b, gen)
	b = binary.BigEndian.AppendUint32(b, crc) // want: decode stops before this
	return b
}

func decodeTrailer(d *wire.Decoder) uint32 {
	return d.U32()
}

// --- known-bad: unpaired codecs ------------------------------------------

func encodeOrphan(b []byte, v uint8) []byte { // want: no decode counterpart
	return append(b, v)
}

func decodeStray(d *wire.Decoder) uint8 { // want: no encode counterpart
	return d.U8()
}

// --- block manifests: the delta-era codec shape ---------------------------
//
// A manifest is a length plus a run of fixed-width content addresses — the
// shape the content-addressed transfer path ships.  The symmetric pair must
// pass; the drifted pair models the realistic regression where the length
// field is narrowed on one side only.

type manifest struct {
	length uint64
	addrs  [][16]byte
}

func (m *manifest) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.length)
	b = binary.AppendUvarint(b, uint64(len(m.addrs)))
	for i := range m.addrs {
		b = append(b, m.addrs[i][:]...)
	}
	return b
}

func decodeManifest(d *wire.Decoder) manifest {
	var m manifest
	m.length = d.U64()
	n := d.Count(1)
	for i := 0; i < n; i++ {
		var a [16]byte
		copy(a[:], d.Take(16))
		m.addrs = append(m.addrs, a)
	}
	return m
}

type blockList struct {
	length uint64
	addrs  [][16]byte
}

func (l *blockList) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, l.length) // want: decode reads u32 here
	b = binary.AppendUvarint(b, uint64(len(l.addrs)))
	for i := range l.addrs {
		b = append(b, l.addrs[i][:]...)
	}
	return b
}

func decodeBlockList(d *wire.Decoder) blockList {
	var l blockList
	l.length = uint64(d.U32()) // drifted when the length field narrowed
	n := d.Count(1)
	for i := 0; i < n; i++ {
		var a [16]byte
		copy(a[:], d.Take(16))
		l.addrs = append(l.addrs, a)
	}
	return l
}

// --- NFS-shaped messages: one flat layout over the wire package ------------
//
// Both sides are written with the one codec's own names, and the attribute
// block is a same-package helper inlined on the encode AND the decode side.
// The symmetric pair must pass; the drifted pair models the read length
// widening on the decode side only.

type attr struct {
	kind  uint8
	mode  uint16
	ctime uint64
	id    string
}

func encodeAttr(b []byte, a attr) []byte {
	b = wire.AppendU8(b, a.kind)
	b = wire.AppendU16(b, a.mode)
	b = wire.AppendU64(b, a.ctime)
	return wire.AppendString(b, a.id)
}

func decodeAttr(d *wire.Decoder) attr {
	return attr{kind: d.U8(), mode: d.U16(), ctime: d.U64(), id: d.Str()}
}

type reply struct {
	errno uint32
	attr  attr
	eof   bool
	data  []byte
	names []string
}

func (r *reply) encode(b []byte) []byte {
	b = wire.AppendU8(b, 1)
	b = wire.AppendU32(b, r.errno)
	b = encodeAttr(b, r.attr)
	b = wire.AppendBool(b, r.eof)
	b = wire.AppendBytes(b, r.data)
	b = wire.AppendCount(b, len(r.names))
	for _, n := range r.names {
		b = wire.AppendString(b, n)
	}
	return b
}

func decodeReply(d *wire.Decoder) reply {
	d.Version(1)
	r := reply{errno: d.U32(), attr: decodeAttr(d), eof: d.Bool(), data: d.Bytes()}
	if n := d.Count(1); n > 0 {
		r.names = make([]string, n)
		for i := range r.names {
			r.names[i] = d.Str()
		}
	}
	if d.Finish() != nil {
		return reply{}
	}
	return r
}

type call struct {
	op     uint8
	handle string
	excl   bool
	off    uint64
	length uint32
}

func (c *call) encode(b []byte) []byte {
	b = wire.AppendU8(b, c.op)
	b = wire.AppendString(b, c.handle)
	b = wire.AppendBool(b, c.excl)
	b = wire.AppendU64(b, c.off)
	b = wire.AppendU32(b, c.length) // want: decode reads u64 here
	return b
}

func decodeCall(d *wire.Decoder) call {
	var c call
	c.op = d.U8()
	c.handle = d.Str()
	c.excl = d.Bool()
	c.off = d.U64()
	c.length = uint32(d.U64()) // drifted when the length widened on one side
	return c
}

// --- op tables -----------------------------------------------------------

type opCode uint8

const (
	opPing opCode = 1
	opPull opCode = 2
	opStat opCode = 3 // want: never dispatched
)

func dispatch(op opCode, d *wire.Decoder) int {
	switch op {
	case opPing:
		return int(decodePing(d).seq)
	case opPull:
		return len(decodeRoster(d).ids)
	}
	return -1
}

type ackCode uint8

const (
	ackOK  ackCode = 0
	ackErr ackCode = 1
)

// ackName dispatches every ackCode constant: a fully covered table.
func ackName(a ackCode) string {
	switch a {
	case ackOK:
		return "ok"
	case ackErr:
		return "err"
	}
	return "?"
}
