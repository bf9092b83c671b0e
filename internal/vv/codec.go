package vv

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/ids"
)

// Wire format: a uint32 entry count followed by (uint32 replica, uint64
// counter) pairs sorted by replica id.  The sort makes the encoding
// canonical so byte-equal encodings mean Equal vectors; the physical layer
// relies on this when deciding whether an auxiliary attribute file needs a
// rewrite.

// AppendBinary appends the canonical encoding of v to dst.  The replica ids
// are sorted in a fixed array, so a vector of up to 32 entries costs no
// allocation beyond dst's growth.
func (v Vector) AppendBinary(dst []byte) []byte {
	var fixed [32]ids.ReplicaID
	rs := fixed[:0]
	for r, n := range v {
		if n > 0 {
			rs = append(rs, r)
		}
	}
	slices.Sort(rs)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r))
		dst = binary.BigEndian.AppendUint64(dst, v[r])
	}
	return dst
}

// MarshalBinary encodes v canonically.
func (v Vector) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(nil), nil
}

// DecodeFrom decodes one vector from the front of b, returning the vector
// and the number of bytes consumed.
func DecodeFrom(b []byte) (Vector, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("vv: short buffer: %d bytes", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	need := 4 + n*12
	if len(b) < need {
		return nil, 0, fmt.Errorf("vv: short buffer: want %d bytes, have %d", need, len(b))
	}
	v := make(Vector, n)
	off := 4
	var prev int64 = -1
	for i := 0; i < n; i++ {
		r := binary.BigEndian.Uint32(b[off:])
		c := binary.BigEndian.Uint64(b[off+4:])
		if int64(r) <= prev {
			return nil, 0, fmt.Errorf("vv: non-canonical encoding: replica ids not strictly increasing")
		}
		prev = int64(r)
		if c > 0 {
			v[ids.ReplicaID(r)] = c
		}
		off += 12
	}
	return v, off, nil
}

// UnmarshalBinary decodes a vector that occupies the entire buffer.
func (v *Vector) UnmarshalBinary(b []byte) error {
	dec, n, err := DecodeFrom(b)
	if err != nil {
		return err
	}
	if n != len(b) {
		return fmt.Errorf("vv: %d trailing bytes after vector", len(b)-n)
	}
	*v = dec
	return nil
}
