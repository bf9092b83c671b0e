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

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

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

// String renders the file id in the fixed-width hexadecimal form used as a
// UFS name component by the physical layer.
func (f FileID) String() string {
	const hex = "0123456789abcdef"
	var b [24]byte
	for i, v := 7, uint32(f.Issuer); i >= 0; i, v = i-1, v>>4 {
		b[i] = hex[v&0xf]
	}
	for i, v := 23, f.Seq; i >= 8; i, v = i-1, v>>4 {
		b[i] = hex[v&0xf]
	}
	return string(b[:])
}

// ParseFileID decodes the fixed-width hexadecimal form produced by String.
func ParseFileID(s string) (FileID, error) {
	if len(s) != 24 {
		return FileID{}, fmt.Errorf("ids: file id %q: want 24 hex digits, have %d", s, len(s))
	}
	issuer, err := strconv.ParseUint(s[:8], 16, 32)
	if err != nil {
		return FileID{}, fmt.Errorf("ids: file id %q: %v", s, err)
	}
	seq, err := strconv.ParseUint(s[8:], 16, 64)
	if err != nil {
		return FileID{}, fmt.Errorf("ids: file id %q: %v", s, err)
	}
	return FileID{Issuer: ReplicaID(issuer), Seq: seq}, nil
}

// VolumeHandle globally names a logical volume.
type VolumeHandle struct {
	Allocator AllocatorID
	Volume    VolumeID
}

// String renders the volume handle as dotted hex, e.g. "0000000a.00000001".
func (v VolumeHandle) String() string {
	return fmt.Sprintf("%08x.%08x", uint32(v.Allocator), uint32(v.Volume))
}

// ParseVolumeHandle decodes the form produced by VolumeHandle.String.
func ParseVolumeHandle(s string) (VolumeHandle, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 2 {
		return VolumeHandle{}, fmt.Errorf("ids: volume handle %q: want two dotted fields", s)
	}
	a, err := strconv.ParseUint(parts[0], 16, 32)
	if err != nil {
		return VolumeHandle{}, fmt.Errorf("ids: volume handle %q: %v", s, err)
	}
	v, err := strconv.ParseUint(parts[1], 16, 32)
	if err != nil {
		return VolumeHandle{}, fmt.Errorf("ids: volume handle %q: %v", s, err)
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

// FileHandle names a logical file: <allocator-id, volume-id, file-id>.  The
// logical layer maps client-supplied names to file handles and uses them to
// communicate file identity to physical layers (paper §2.5).
type FileHandle struct {
	Vol  VolumeHandle
	File FileID
}

// String renders the file handle as dotted hex.
func (h FileHandle) String() string {
	return fmt.Sprintf("%s.%s", h.Vol, h.File)
}

// ParseFileHandle decodes the form produced by FileHandle.String.
func ParseFileHandle(s string) (FileHandle, error) {
	i := strings.LastIndexByte(s, '.')
	if i < 0 {
		return FileHandle{}, errors.New("ids: file handle: missing separators")
	}
	vh, err := ParseVolumeHandle(s[:i])
	if err != nil {
		return FileHandle{}, err
	}
	fid, err := ParseFileID(s[i+1:])
	if err != nil {
		return FileHandle{}, err
	}
	return FileHandle{Vol: vh, File: fid}, nil
}

// ReplicaHandle fully specifies one physical replica of one file:
// <allocator-id, volume-id, file-id, replica-id> (paper §4.2).
type ReplicaHandle struct {
	Vol     VolumeHandle
	File    FileID
	Replica ReplicaID
}

// FileHandle projects away the replica component.
func (r ReplicaHandle) FileHandle() FileHandle {
	return FileHandle{Vol: r.Vol, File: r.File}
}

// VolumeReplica projects the containing volume replica.
func (r ReplicaHandle) VolumeReplica() VolumeReplicaHandle {
	return VolumeReplicaHandle{Vol: r.Vol, Replica: r.Replica}
}

// String renders the replica handle as dotted hex.
func (r ReplicaHandle) String() string {
	return fmt.Sprintf("%s.%s.%08x", r.Vol, r.File, uint32(r.Replica))
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
