package exp

import (
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// E8 — paper §3.2 fn5: the single-file atomic commit "is not necessary for
// the correct operation of the general Ficus functionality.  While its
// performance impact is usually small, it can have a significant effect if
// the client is updating a few points in a large file.  To avoid alteration
// of the UFS, rewriting the entire file is necessary."
//
// The harness updates a handful of bytes in files of increasing size two
// ways — a direct in-place replica write and a propagation-style install
// through the shadow commit — and counts device writes.  The in-place cost
// is flat; the shadow cost grows with the file, which is the paper's
// "significant effect" and the crossover the footnote warns about.

// ShadowRow is one file size's write costs.
type ShadowRow struct {
	FileBlocks    int
	InPlaceWrites uint64 // direct point update on the replica
	ShadowWrites  uint64 // full-file install through the atomic commit
}

// ShadowCommitCost measures point-update costs for each file size.
func ShadowCommitCost(fileBlocks []int) ([]ShadowRow, error) {
	out := make([]ShadowRow, 0, len(fileBlocks))
	for _, nb := range fileBlocks {
		dev := disk.New(16384 + nb*4)
		fs, err := ufs.Mkfs(dev, 2048, nil)
		if err != nil {
			return nil, err
		}
		layer, err := physical.Format(ufsvn.New(fs), ExpVol, 1)
		if err != nil {
			return nil, err
		}
		root, err := layer.Root()
		if err != nil {
			return nil, err
		}
		f, err := root.Create("big", true)
		if err != nil {
			return nil, err
		}
		data := make([]byte, nb*ufs.BlockSize)
		for i := range data {
			data[i] = byte(i)
		}
		if err := vnode.WriteFile(f, data); err != nil {
			return nil, err
		}
		a, err := f.Getattr()
		if err != nil {
			return nil, err
		}
		fid, err := ids.ParseFileID(a.FileID)
		if err != nil {
			return nil, err
		}

		// Point update, in place.
		dev.ResetStats()
		if _, err := f.WriteAt([]byte("patch"), int64(nb/2*ufs.BlockSize)); err != nil {
			return nil, err
		}
		inPlace := dev.Stats().Writes

		// The same logical change installed via the shadow commit (as
		// update propagation must do it).
		copy(data[nb/2*ufs.BlockSize:], "patch")
		st, err := layer.FileInfo(physical.RootPath(), fid)
		if err != nil {
			return nil, err
		}
		newVV := st.Aux.VV.Bump(2)
		dev.ResetStats()
		if err := layer.InstallFileVersion(physical.RootPath(), fid, physical.KFile, data, newVV, 1); err != nil {
			return nil, err
		}
		shadow := dev.Stats().Writes

		out = append(out, ShadowRow{FileBlocks: nb, InPlaceWrites: inPlace, ShadowWrites: shadow})
	}
	return out, nil
}
