package physical

import (
	"strings"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// Open/close over lookup (paper §2.3).  The NFS protocol has no open or
// close operation, so "a layer intending to receive an open will never get
// it if NFS is in between."  Ficus therefore encodes an open or close
// request as an ASCII string of sufficient length to be passed on by NFS
// without interpretation, and ships it through the Lookup service.  The
// physical layer recognizes the encoding, performs the open/close
// bookkeeping, and returns the target vnode.
//
// Wire shape (all fields fixed width except the trailing name):
//
//	.#ficus#:<op 5>:<flags 8 hex>:<logical layer volume handle 17>:<name>
//
// The fixed overhead is EncOverhead bytes, which shrinks the maximum
// client-visible name component from the UFS's 255 to MaxEncodedName —
// the paper's "reduction ... from 255 to about 200" (§2.3 fn2), about
// which the authors note "we've never seen a component of even length 40."

// Encoding constants.
const (
	encPrefix = vnode.EncodedLookupPrefix // reserved in vnode so that nfs knows it too
	opOpen    = "open."
	opClose   = "close"

	// EncOverhead is the fixed byte cost of the encoding.
	// prefix(9) + op(5) + ":"(1) + flags(8) + ":"(1) + volume handle(17) + ":"(1)
	EncOverhead = len(encPrefix) + 5 + 1 + 8 + 1 + 17 + 1

	// SubstrateMaxName is the longest name the UFS substrate accepts.
	SubstrateMaxName = 255

	// MaxEncodedName is the name budget left for clients once the
	// open/close encoding must fit in a substrate name.
	MaxEncodedName = SubstrateMaxName - EncOverhead
)

// EncodeOpenLookup renders an open or close of name (flags f) issued by the
// logical layer serving volume issuer.
func EncodeOpenLookup(open bool, f vnode.OpenFlags, issuer ids.VolumeHandle, name string) string {
	var buf [SubstrateMaxName]byte // a longer name spills to the heap
	return string(AppendOpenLookup(buf[:0], open, f, issuer, name))
}

// AppendOpenLookup appends EncodeOpenLookup's bytes to dst, so a caller with a
// stack buffer renders the name without allocating.
func AppendOpenLookup(dst []byte, open bool, f vnode.OpenFlags, issuer ids.VolumeHandle, name string) []byte {
	op := opClose
	if open {
		op = opOpen
	}
	// Written out by hand, twice per file session on the read path; the
	// bytes are those of Sprintf("%s%s:%08x:%s:%s", encPrefix, op, f, issuer, name).
	dst = append(append(append(dst, encPrefix...), op...), ':')
	dst = append(ids.AppendHex(dst, uint64(f), 8), ':')
	dst = append(ids.AppendVolumeHandle(dst, issuer), ':')
	return append(dst, name...)
}

// IsEncodedLookup reports whether a lookup name carries an open/close.
func IsEncodedLookup(name string) bool { return strings.HasPrefix(name, encPrefix) }

// DecodeOpenLookup parses an encoded lookup, by offset: it accepts exactly
// what EncodeOpenLookup writes.
func DecodeOpenLookup(s string) (open bool, f vnode.OpenFlags, issuer ids.VolumeHandle, name string, err error) {
	const opAt = len(encPrefix)
	const flagsAt = opAt + len(opOpen) + 1
	const volAt = flagsAt + 8 + 1
	if len(s) < EncOverhead || !IsEncodedLookup(s) || s[flagsAt-1] != ':' || s[volAt-1] != ':' || s[EncOverhead-1] != ':' {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	switch s[opAt : flagsAt-1] {
	case opOpen:
		open = true
	case opClose:
		open = false
	default:
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	fl, ok := ids.ParseHex(s[flagsAt : volAt-1])
	vh, verr := ids.ParseVolumeHandle(s[volAt : EncOverhead-1])
	if !ok || verr != nil {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	return open, vnode.OpenFlags(fl), vh, s[EncOverhead:], nil
}
