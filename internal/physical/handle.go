package physical

import (
	"strings"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// A physical-layer vnode handle is its kind's letter and then, for every fid
// on its path from the volume root to itself, "|" and the fid's fixed-width
// rendering: "d|<root>" is the root, "f|<root>|<dir>|<file>" a file in a
// directory of the root.  Every field has a fixed width, so the handle is
// written in one allocation and parsed by offset.
const handleFieldLen = 1 + ids.FileIDLen

// handleLetter is the letter a kind's handle starts with.
func handleLetter(k Kind) byte {
	switch {
	case k.IsDir():
		return 'd'
	case k == KSymlink:
		return 'l'
	default:
		return 'f'
	}
}

// handleOf renders the handle of the node fid, of kind k, in the directory
// dirPath.
func handleOf(k Kind, dirPath []ids.FileID, fid ids.FileID) string {
	var sb strings.Builder
	sb.Grow(1 + handleFieldLen*(len(dirPath)+1))
	sb.WriteByte(handleLetter(k))
	var field [handleFieldLen]byte
	for _, f := range dirPath {
		sb.Write(ids.AppendFileID(append(field[:0], '|'), f))
	}
	sb.Write(ids.AppendFileID(append(field[:0], '|'), fid))
	return sb.String()
}

// ParseHandle decodes a physical-layer vnode handle into its kind and fid
// path.  Handles travel verbatim through the NFS layer, so the logical
// layer can recover the fid path of any file it reached remotely — which is
// what an update notification must carry (§2.5/§3.2).  What no handle spells
// is ESTALE.
func ParseHandle(handle string) (kind Kind, dirPath []ids.FileID, fid ids.FileID, err error) {
	kind, path, err := parseHandle(handle)
	if err != nil {
		return 0, nil, ids.FileID{}, err
	}
	return kind, path[:len(path)-1], path[len(path)-1], nil
}

// parseHandle is ParseHandle answering the whole fid path, the node's own fid
// last, in one slice.
func parseHandle(handle string) (Kind, []ids.FileID, error) {
	kind, _, ok := handleTail(handle)
	if !ok {
		return 0, nil, vnode.ESTALE
	}
	path := make([]ids.FileID, (len(handle)-1)/handleFieldLen)
	for i := range path {
		f, ok := handleField(handle[1+i*handleFieldLen : 1+(i+1)*handleFieldLen])
		if !ok {
			return 0, nil, vnode.ESTALE
		}
		path[i] = f
	}
	return kind, path, nil
}

// handleTail checks what of a handle a vnode table probe does not — its length,
// its kind letter and its last field — and answers the kind and the node's fid.
func handleTail(handle string) (Kind, ids.FileID, bool) {
	if len(handle) < 1+handleFieldLen || (len(handle)-1)%handleFieldLen != 0 {
		return 0, ids.FileID{}, false
	}
	var kind Kind
	switch handle[0] {
	case 'd':
		kind = KDir
	case 'f':
		kind = KFile
	case 'l':
		kind = KSymlink
	default:
		return 0, ids.FileID{}, false
	}
	f, ok := handleField(handle[len(handle)-handleFieldLen:])
	return kind, f, ok
}

// handleField parses one "|<fid>" field of a handle.
func handleField(field string) (ids.FileID, bool) {
	f, err := ids.ParseFileID(field[1:])
	return f, field[0] == '|' && err == nil
}
