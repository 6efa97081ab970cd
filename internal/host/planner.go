package host

import (
	"diskthru/internal/array"
	"diskthru/internal/fslayout"
	"diskthru/internal/stats"
)

// PlanHDC selects, for each disk, the physical blocks to pin: the
// most-accessed logical blocks, each stored on its own disk (the paper's
// "perfect knowledge of the future" policy, section 6.1). ranked is the
// trace's block ranking, most accessed first (stats.AccessCounter's
// Ranked order); it depends only on the trace and layout, so callers
// compute it once and plan every striping and capacity from it.
// perDiskBlocks bounds each controller's pinned region. The returned
// slice is indexed by disk.
func PlanHDC(ranked []stats.BlockCount, s array.Striper, perDiskBlocks int) [][]int64 {
	plan := make([][]int64, s.Disks)
	if perDiskBlocks <= 0 {
		return plan
	}
	full := 0
	for _, bc := range ranked {
		d, pba := s.Locate(bc.Block)
		if len(plan[d]) >= perDiskBlocks {
			continue
		}
		plan[d] = append(plan[d], pba)
		if len(plan[d]) == perDiskBlocks {
			full++
			if full == s.Disks {
				break
			}
		}
	}
	return plan
}

// MinReadAheadBlocks is the paper's R_min sizing rule (section 5): the
// minimum read-ahead cache an array needs to serve t streams without
// interference. Blind read-ahead needs a whole segment per stream;
// FOR needs only the average file size per stream.
func MinReadAheadBlocks(streams, segmentBlocks, avgFileBlocks int, useFOR bool) int {
	if useFOR && avgFileBlocks < segmentBlocks {
		return streams * avgFileBlocks
	}
	return streams * segmentBlocks
}

// MaxHDCBlocks is H_max = D*c - R_min from section 5: the most cache the
// host should hand to HDC array-wide, given each controller holds
// cacheBlocks.
func MaxHDCBlocks(disks, cacheBlocks, minReadAheadBlocks int) int {
	h := disks*cacheBlocks - minReadAheadBlocks
	if h < 0 {
		return 0
	}
	return h
}

// BuildBitmaps is a convenience re-export so callers assembling an array
// need only import host.
func BuildBitmaps(l *fslayout.Layout, s array.Striper) []*fslayout.Bitmap {
	return fslayout.BuildBitmaps(l, s)
}
