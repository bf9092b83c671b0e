package physical

import (
	"strconv"
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
	op := opClose
	if open {
		op = opOpen
	}
	// Written out by hand, twice per file session on the read path; the
	// bytes are those of Sprintf("%s%s:%08x:%s:%s", encPrefix, op, f, issuer, name).
	var b strings.Builder
	b.Grow(EncOverhead + len(name))
	b.WriteString(encPrefix)
	b.WriteString(op)
	b.WriteByte(':')
	writeHex32(&b, uint32(f))
	b.WriteByte(':')
	writeHex32(&b, uint32(issuer.Allocator))
	b.WriteByte('.')
	writeHex32(&b, uint32(issuer.Volume))
	b.WriteByte(':')
	b.WriteString(name)
	return b.String()
}

// writeHex32 writes v as eight lower-case hex digits.
func writeHex32(b *strings.Builder, v uint32) {
	for shift := 28; shift >= 0; shift -= 4 {
		b.WriteByte("0123456789abcdef"[v>>shift&0xf])
	}
}

// IsEncodedLookup reports whether a lookup name carries an open/close.
func IsEncodedLookup(name string) bool { return strings.HasPrefix(name, encPrefix) }

// DecodeOpenLookup parses an encoded lookup.
func DecodeOpenLookup(s string) (open bool, f vnode.OpenFlags, issuer ids.VolumeHandle, name string, err error) {
	if !IsEncodedLookup(s) {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	rest := s[len(encPrefix):]
	parts := strings.SplitN(rest, ":", 4)
	if len(parts) != 4 {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	switch parts[0] {
	case opOpen:
		open = true
	case opClose:
		open = false
	default:
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	fl, perr := strconv.ParseUint(parts[1], 16, 32)
	if perr != nil {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	vh, perr := ids.ParseVolumeHandle(parts[2])
	if perr != nil {
		return false, 0, ids.VolumeHandle{}, "", vnode.EINVAL
	}
	return open, vnode.OpenFlags(fl), vh, parts[3], nil
}
