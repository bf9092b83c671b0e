package vv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ids"
)

// Wire format: a uint32 entry count followed by (uint32 replica, uint64
// counter) pairs sorted by replica id.  The sort makes the encoding
// canonical so byte-equal encodings mean Equal vectors; the physical layer
// relies on this when deciding whether an auxiliary attribute file needs a
// rewrite.

// AppendBinary appends the canonical encoding of v to dst.
func (v Vector) AppendBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.e)))
	for _, e := range v.e {
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.r))
		dst = binary.BigEndian.AppendUint64(dst, e.n)
	}
	return dst
}

// DecodeFrom decodes one vector from the front of b, returning the vector
// and the number of bytes consumed.  Zero counters are dropped.
func DecodeFrom(b []byte) (Vector, int, error) {
	if len(b) < 4 {
		return Vector{}, 0, fmt.Errorf("vv: short buffer: %d bytes", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	need := 4 + n*12
	if len(b) < need {
		return Vector{}, 0, fmt.Errorf("vv: short buffer: want %d bytes, have %d", need, len(b))
	}
	e := make([]entry, 0, n)
	off := 4
	var prev int64 = -1
	for i := 0; i < n; i++ {
		r := binary.BigEndian.Uint32(b[off:])
		c := binary.BigEndian.Uint64(b[off+4:])
		if int64(r) <= prev {
			return Vector{}, 0, fmt.Errorf("vv: non-canonical encoding: replica ids not strictly increasing")
		}
		prev = int64(r)
		if c > 0 {
			e = append(e, entry{ids.ReplicaID(r), c})
		}
		off += 12
	}
	if len(e) == 0 {
		return Vector{}, off, nil
	}
	return Vector{e}, off, nil
}
