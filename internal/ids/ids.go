// Package ids defines the identifier scheme of the Ficus replicated file
// system (Guy et al., USENIX Summer 1990, §3.1 and §4.2).
//
// A volume is named by an allocator id (a globally unique value issued to
// each Ficus host before installation) and a volume id issued by that
// allocator.  A volume replica adds a replica id.  Within a volume, a
// logical file is named by a file id; to guarantee uniqueness without
// coordination, a file id is the pair <issuing replica id, sequence number>.
// A particular file replica is fully specified by
//
//	<allocator-id, volume-id, file-id, replica-id>
//
// which is unique across all Ficus hosts in existence.
//
// The physical layer stores Ficus files as UFS files whose names are
// hexadecimal encodings of these identifiers (paper §2.6); the encoding and
// decoding functions live here so the logical layer, the physical layer and
// fsck-style tools all agree on the mapping.
package ids

import "fmt"

// AllocatorID names the host that allocated a volume id.  The paper suggests
// an Internet host address would suffice.
type AllocatorID uint32

// VolumeID names a volume within the namespace of one allocator.
type VolumeID uint32

// ReplicaID names one replica of a volume.  The paper bounds the replication
// factor at 2^32 replicas of a given file (§3.1 fn4).
type ReplicaID uint32

// FileID uniquely names a logical file within a volume.  File ids are issued
// independently by each volume replica; prefixing the issuing replica's id
// makes concurrent issuance collision-free (paper §4.2).
type FileID struct {
	Issuer ReplicaID // replica that allocated this id
	Seq    uint64    // issuer-local sequence number
}

// RootFileID is the well-known file id of a volume's root directory.  Every
// volume replica must store a replica of the root node (paper §4.1), so the
// root id is fixed rather than issued.
var RootFileID = FileID{Issuer: 0, Seq: 1}

// Zero values double as "absent" sentinels throughout the system.
var (
	NilFileID = FileID{}
)

// IsNil reports whether the file id is the absent sentinel.
func (f FileID) IsNil() bool { return f == NilFileID }

// FileIDLen is the length of a file id's rendering: 8 hex digits of issuer
// and 16 of sequence number.
const FileIDLen = 24

// String renders the file id in the fixed-width hexadecimal form used as a
// UFS name component by the physical layer.
func (f FileID) String() string {
	var b [FileIDLen]byte
	return string(AppendFileID(b[:0], f))
}

// AppendFileID appends the rendering String returns to dst, so a caller can
// build a longer name around it in one allocation.
func AppendFileID(dst []byte, f FileID) []byte {
	return AppendHex(AppendHex(dst, uint64(f.Issuer), 8), f.Seq, 16)
}

const hexDigits = "0123456789abcdef"

// AppendHex appends the low 4·n bits of v as n lower-case hex digits: the
// fields of every rendering here, and of the physical layer's names.
func AppendHex(dst []byte, v uint64, n int) []byte {
	for shift := 4 * (n - 1); shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[v>>uint(shift)&0xf])
	}
	return dst
}

// ParseHex decodes s, at most 16 lower-case hex digits, as AppendHex writes
// them: it accepts no digit AppendHex would not have written.
func ParseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}

// ParseFileID decodes the fixed-width hexadecimal form produced by String.
func ParseFileID(s string) (FileID, error) {
	if len(s) != FileIDLen {
		return FileID{}, fmt.Errorf("ids: file id %q: want %d hex digits, have %d", s, FileIDLen, len(s))
	}
	issuer, ok1 := ParseHex(s[:8])
	seq, ok2 := ParseHex(s[8:])
	if !ok1 || !ok2 {
		return FileID{}, fmt.Errorf("ids: file id %q: not lower-case hex", s)
	}
	return FileID{Issuer: ReplicaID(issuer), Seq: seq}, nil
}

// VolumeHandle globally names a logical volume.
type VolumeHandle struct {
	Allocator AllocatorID
	Volume    VolumeID
}

// VolumeHandleLen is the length of a volume handle's rendering.
const VolumeHandleLen = 17

// String renders the volume handle as dotted hex, e.g. "0000000a.00000001".
func (v VolumeHandle) String() string {
	var b [VolumeHandleLen]byte
	return string(AppendVolumeHandle(b[:0], v))
}

// AppendVolumeHandle appends the rendering String returns to dst.
func AppendVolumeHandle(dst []byte, v VolumeHandle) []byte {
	return AppendHex(append(AppendHex(dst, uint64(v.Allocator), 8), '.'), uint64(v.Volume), 8)
}

// ParseVolumeHandle decodes the form produced by VolumeHandle.String, by
// offset: two fields of eight lower-case hex digits around a dot.
func ParseVolumeHandle(s string) (VolumeHandle, error) {
	if len(s) != VolumeHandleLen || s[8] != '.' {
		return VolumeHandle{}, fmt.Errorf("ids: volume handle %q: want %d bytes, dotted at 8", s, VolumeHandleLen)
	}
	a, ok1 := ParseHex(s[:8])
	v, ok2 := ParseHex(s[9:])
	if !ok1 || !ok2 {
		return VolumeHandle{}, fmt.Errorf("ids: volume handle %q: not lower-case hex", s)
	}
	return VolumeHandle{Allocator: AllocatorID(a), Volume: VolumeID(v)}, nil
}

// VolumeReplicaHandle globally names one replica of a volume:
// <allocator-id, volume-id, replica-id> (paper §4.2).
type VolumeReplicaHandle struct {
	Vol     VolumeHandle
	Replica ReplicaID
}

// String renders the volume replica handle as dotted hex.
func (v VolumeReplicaHandle) String() string {
	return fmt.Sprintf("%s.%08x", v.Vol, uint32(v.Replica))
}

// Sequencer issues file ids on behalf of one volume replica.  It is the
// paper's "each volume replica assigns file identifiers to new files
// independently" (§4.2): ids carry the issuing replica so independent
// sequencers can never collide.
type Sequencer struct {
	replica ReplicaID
	next    uint64
}

// NewSequencer returns a sequencer for the given replica.  The first id
// issued has sequence number `start` (use 2: sequence 1 under issuer 0 is
// reserved for the volume root).
func NewSequencer(replica ReplicaID, start uint64) *Sequencer {
	if start == 0 {
		start = 1
	}
	return &Sequencer{replica: replica, next: start}
}

// Next issues a fresh file id.
func (s *Sequencer) Next() FileID {
	id := FileID{Issuer: s.replica, Seq: s.next}
	s.next++
	return id
}

// Resume tells the sequencer that ids up to and including seq have been
// issued previously (used after remounting a volume replica, where the next
// sequence number is recovered from stable storage).
func (s *Sequencer) Resume(seq uint64) {
	if seq+1 > s.next {
		s.next = seq + 1
	}
}

// Last reports the most recently issued sequence number (0 if none).
func (s *Sequencer) Last() uint64 { return s.next - 1 }
