package physical

import (
	"fmt"
	"strings"

	"repro/internal/ids"
	"repro/internal/vnode"
)

// Check is the Ficus-level fsck: it walks the volume replica's container
// tree and verifies the invariants the physical layer maintains on top of
// UFS (§2.6).  It returns a list of problems (empty means clean):
//
//   - every directory container has a decodable contents file and aux file
//   - every live file entry with local storage has BOTH a data file and a
//     decodable auxiliary attribute file, with a consistent link count
//   - every live directory entry's container (if stored) is well-formed
//   - no leftover shadow files (recovery should have consumed them)
//   - no orphaned storage: every F/A/D member of a container is named by
//     some entry (live or tombstone) of that directory, and a container
//     holds nothing but dir, attr and such members
//   - entry ids are unique within each directory
//   - the store root holds the meta file and the root container, and
//     nothing else: every byte of file data is stored once
func (l *Layer) Check() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var problems []string
	rootName := memberName(prefixDir, ids.RootFileID)
	members, err := l.root.Readdir()
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if _, shadow := shadowBase(m.Name); shadow {
			problems = append(problems, fmt.Sprintf("store root: leftover shadow file %q (crash recovery incomplete)", m.Name))
		} else if m.Name != metaFileName && m.Name != rootName {
			problems = append(problems, fmt.Sprintf("store root: unidentified member %q", m.Name))
		}
	}
	cont, err := l.rootContainer()
	if err != nil {
		return append(problems, fmt.Sprintf("volume root container missing: %v", err)), nil
	}
	err = l.checkContainerLocked(cont, ids.RootFileID, "/", &problems)
	return problems, err
}

func (l *Layer) checkContainerLocked(cont vnode.Vnode, dirFid ids.FileID, path string, problems *[]string) error {
	report := func(format string, args ...any) {
		*problems = append(*problems, fmt.Sprintf("%s: ", path)+fmt.Sprintf(format, args...))
	}

	// The directory's own metadata.
	entries, _, err := l.readDirFileLocked(cont)
	if err != nil {
		report("unreadable directory contents file: %v", err)
		return nil
	}
	if _, _, err := readAuxFile(cont, dirAttrName); err != nil {
		report("unreadable directory attribute file: %v", err)
	}

	// Entry-id uniqueness and per-child reference counts.
	seen := make(map[ids.FileID]bool, len(entries))
	liveRefs := make(map[ids.FileID]int)
	named := make(map[ids.FileID]bool)
	for _, e := range entries {
		if seen[e.EID] {
			report("duplicate entry id %v (name %q)", e.EID, e.Name)
		}
		seen[e.EID] = true
		named[e.Child] = true
		if e.Live() {
			liveRefs[e.Child]++
		}
	}

	// Container members.
	members, err := cont.Readdir()
	if err != nil {
		return err
	}
	stored := make(map[string]bool, len(members))
	for _, m := range members {
		stored[m.Name] = true
	}
	for _, m := range members {
		_, shadow := shadowBase(m.Name)
		switch {
		case m.Name == dirFileName || m.Name == dirAttrName:
		case shadow:
			report("leftover shadow file %q (crash recovery incomplete)", m.Name)
		case strings.HasPrefix(m.Name, prefixData):
			fid, err := ids.ParseFileID(m.Name[len(prefixData):])
			if err != nil {
				report("unparsable data file name %q", m.Name)
				continue
			}
			if !named[fid] {
				report("orphaned data file %q (no entry names %v)", m.Name, fid)
			}
			if !stored[memberName(prefixAux, fid)] {
				report("data file %q has no auxiliary attribute file", m.Name)
			}
		case strings.HasPrefix(m.Name, prefixAux):
			fid, err := ids.ParseFileID(m.Name[len(prefixAux):])
			if err != nil {
				report("unparsable aux file name %q", m.Name)
				continue
			}
			if !named[fid] {
				report("orphaned aux file %q", m.Name)
			}
			aux, _, err := readAuxFile(cont, m.Name)
			if err != nil {
				report("undecodable aux file %q: %v", m.Name, err)
				continue
			}
			if refs := liveRefs[fid]; refs > 0 && int(aux.Nlink) != refs {
				report("aux %v nlink=%d but %d live entries name it", fid, aux.Nlink, refs)
			}
			if !stored[memberName(prefixData, fid)] {
				report("aux file %q has no data file", m.Name)
			}
		case strings.HasPrefix(m.Name, prefixDir):
			fid, err := ids.ParseFileID(m.Name[len(prefixDir):])
			if err != nil {
				report("unparsable container name %q", m.Name)
				continue
			}
			if !named[fid] && fid != ids.RootFileID {
				report("orphaned directory container %q", m.Name)
			}
		default:
			report("unidentified container member %q", m.Name)
		}
	}

	// Live entries with local storage must resolve; recurse into stored
	// child directories.
	for _, e := range entries {
		if !e.Live() {
			continue
		}
		if e.Kind.IsDir() {
			if !stored[memberName(prefixDir, e.Child)] {
				continue // legitimately not stored here (§4.1)
			}
			sub, err := cont.Lookup(memberName(prefixDir, e.Child))
			if err != nil {
				report("entry %q: container lookup failed: %v", e.Name, err)
				continue
			}
			if err := l.checkContainerLocked(sub, e.Child, path+e.Name+"/", problems); err != nil {
				return err
			}
			continue
		}
		hasData := stored[memberName(prefixData, e.Child)]
		hasAux := stored[memberName(prefixAux, e.Child)]
		if hasData != hasAux {
			report("entry %q: partial storage (data=%v aux=%v)", e.Name, hasData, hasAux)
		}
	}
	return nil
}
