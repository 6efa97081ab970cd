package cache

import (
	"math/rand"
	"testing"
)

// The controller geometry the benchmarks and allocation guards use: the
// paper's 4-MB drive with 27 segments of 128 KB (32 blocks of 4 KB).
const (
	benchSegments  = 27
	benchSegBlocks = 32
)

// streamOps returns n insert positions drawn like a replay's read-ahead
// stream: a few dozen sequential streams advancing by uneven steps, so
// successive runs overlap, abut and split each other's extents.
func streamOps(n int) []int64 {
	rng := rand.New(rand.NewSource(1))
	heads := make([]int64, 40)
	for i := range heads {
		heads[i] = rng.Int63n(1 << 20)
	}
	ops := make([]int64, n)
	for i := range ops {
		s := rng.Intn(len(heads))
		ops[i] = heads[s]
		heads[s] += int64(4 + rng.Intn(2*benchSegBlocks))
	}
	return ops
}

// warmSegmentStore returns a full 27x32 store that has already absorbed
// the op stream once, so its extent array is at working size.
func warmSegmentStore(ops []int64) *SegmentStore {
	s := NewSegmentStore(benchSegments, benchSegBlocks)
	for _, lba := range ops {
		s.Insert(lba, benchSegBlocks)
	}
	return s
}

// pinnedRegion returns a 27x32-block HDC region filled with runs of 1 to
// 16 blocks spread over a disk-sized address space, like a planner's
// hottest blocks.
func pinnedRegion() (*HDCRegion, []int64) {
	rng := rand.New(rand.NewSource(2))
	h := NewHDCRegion(benchSegments * benchSegBlocks)
	var starts []int64
	for h.Len() < h.Capacity() {
		lo := rng.Int63n(1 << 20)
		starts = append(starts, lo)
		for n := 1 + rng.Intn(16); n > 0; n-- {
			h.Pin(lo)
			lo++
		}
	}
	return h, starts
}

// Steady-state segment-store traffic must not allocate: Insert trims,
// splits and evicts extents in place, and TouchRange and RunEnd only
// read and stamp.
func TestSegmentStoreAllocFree(t *testing.T) {
	ops := streamOps(4096)
	s := warmSegmentStore(ops)
	i := 0
	step := func() {
		lba := ops[i%len(ops)]
		i++
		s.Insert(lba, benchSegBlocks)
		s.TouchRange(lba+3, 8)
		_ = s.RunEnd(lba + 5)
		_ = s.RunEnd(lba - 7)
	}
	if avg := testing.AllocsPerRun(2000, step); avg > 0 {
		t.Errorf("segment store allocates %.2f times per insert/touch/lookup; want 0", avg)
	}
}

// HDC lookups are binary searches over the pinned array.
func TestHDCRunEndAllocFree(t *testing.T) {
	h, starts := pinnedRegion()
	i := 0
	step := func() {
		lo := starts[i%len(starts)]
		i++
		_ = h.RunEnd(lo)
		_ = h.RunEnd(lo + 1)
		_ = h.NextPinned(lo + 2)
	}
	if avg := testing.AllocsPerRun(1000, step); avg > 0 {
		t.Errorf("HDC RunEnd allocates %.2f times per lookup; want 0", avg)
	}
}

// Per-layer microbenchmarks for the controller cache at the paper's
// geometry. They report ns/op and allocs/op for one operation each.

func BenchmarkSegmentStoreInsert(b *testing.B) {
	ops := streamOps(4096)
	s := warmSegmentStore(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(ops[i%len(ops)], benchSegBlocks)
	}
}

func BenchmarkSegmentStoreTouchRange(b *testing.B) {
	ops := streamOps(4096)
	s := warmSegmentStore(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TouchRange(ops[len(ops)-1-i%benchSegments], 8)
	}
}

func BenchmarkSegmentStoreRunEnd(b *testing.B) {
	ops := streamOps(4096)
	s := warmSegmentStore(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.RunEnd(ops[len(ops)-1-i%benchSegments] + int64(i%8))
	}
}

func BenchmarkHDCRegionRunEnd(b *testing.B) {
	h, starts := pinnedRegion()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.RunEnd(starts[i%len(starts)] + int64(i%4))
	}
}
