package cache

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"diskthru/internal/intmap"
)

// refSegmentStore is the per-block segment store the extent store
// replaced: a block -> segment hash index plus each segment's inserted
// blocks. It is the oracle FuzzSegmentStoreEquivalence holds the extent
// store to.
type refSegmentStore struct {
	segBlocks int
	segs      []refSegment
	index     *intmap.Map[int32] // block -> segment slot
	clock     uint64
	evicted   uint64
}

type refSegment struct {
	blocks []int64 // resident block addresses, in insertion order
	lru    uint64  // last-use stamp
}

func newRefSegmentStore(numSegments, segmentBlocks int) *refSegmentStore {
	return &refSegmentStore{
		segBlocks: segmentBlocks,
		segs:      make([]refSegment, numSegments),
		index:     intmap.New[int32](numSegments * segmentBlocks),
	}
}

func (s *refSegmentStore) Len() int                { return s.index.Len() }
func (s *refSegmentStore) Evictions() uint64       { return s.evicted }
func (s *refSegmentStore) Contains(lba int64) bool { return s.index.Contains(lba) }

func (s *refSegmentStore) Touch(lba int64) {
	if slot, ok := s.index.Get(lba); ok {
		s.clock++
		s.segs[slot].lru = s.clock
	}
}

func (s *refSegmentStore) victim() int32 {
	victim := int32(0)
	for i := 1; i < len(s.segs); i++ {
		if s.segs[i].lru < s.segs[victim].lru {
			victim = int32(i)
		}
	}
	return victim
}

func (s *refSegmentStore) Insert(lba int64, count int) {
	if count <= 0 {
		return
	}
	if count > s.segBlocks {
		count = s.segBlocks
	}
	victim := s.victim()
	seg := &s.segs[victim]
	for _, b := range seg.blocks {
		// A block may have been re-indexed into a newer segment, or
		// dropped with it; only drop the mapping if it still points at
		// the victim. (The original ignored the found flag, so a
		// missing block read as slot 0 and segment 0's evictions
		// counted blocks that were already gone.)
		if slot, ok := s.index.Get(b); ok && slot == victim {
			s.index.Delete(b)
			s.evicted++
		}
	}
	seg.blocks = seg.blocks[:0]
	for i := 0; i < count; i++ {
		b := lba + int64(i)
		seg.blocks = append(seg.blocks, b)
		s.index.Put(b, victim)
	}
	s.clock++
	seg.lru = s.clock
}

// lruOrder lists segment slots from least to most recently used, ties
// by slot: the order victim selection walks.
func lruOrder(n int, stamp func(int) uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stamp(order[a]) < stamp(order[b]) })
	return order
}

// listOrder walks the store's recency list from head to tail, checking
// that every back link matches and that each segment appears once.
func listOrder(t *testing.T, s *SegmentStore) []int {
	t.Helper()
	var order []int
	prev := nilNode
	for v := s.head; v != nilNode; v = s.segs[v].next {
		if s.segs[v].prev != prev {
			t.Fatalf("segment %d prev = %d, walked from %d", v, s.segs[v].prev, prev)
		}
		if len(order) == len(s.segs) {
			t.Fatalf("recency list longer than %d segments: cycle", len(s.segs))
		}
		order = append(order, int(v))
		prev = v
	}
	if s.tail != prev || len(order) != len(s.segs) {
		t.Fatalf("recency list %v ends at %d, tail %d", order, prev, s.tail)
	}
	return order
}

// segTwin drives one op stream through the extent store and the oracle.
type segTwin struct {
	t      *testing.T
	got    *SegmentStore
	want   *refSegmentStore
	domain int64 // blocks [0, domain) are compared after every step
}

func (w *segTwin) step(op byte, lba int64, count int) {
	switch op % 4 {
	case 0, 1:
		w.got.Insert(lba, count)
		w.want.Insert(lba, count)
	case 2:
		w.got.TouchRange(lba, 1)
		w.want.Touch(lba)
	case 3:
		w.got.TouchRange(lba, count)
		for i := 0; i < count; i++ {
			w.want.Touch(lba + int64(i))
		}
	}
	w.check()
}

func (w *segTwin) check() {
	t := w.t
	t.Helper()
	if g, r := w.got.Len(), w.want.Len(); g != r {
		t.Fatalf("Len = %d, oracle %d", g, r)
	}
	if g, r := w.got.Evictions(), w.want.Evictions(); g != r {
		t.Fatalf("Evictions = %d, oracle %d", g, r)
	}
	for b := int64(0); b < w.domain; b++ {
		end := b
		for w.want.Contains(end) {
			end++
		}
		if g := w.got.RunEnd(b); g != end {
			t.Fatalf("RunEnd(%d) = %d, oracle %d", b, g, end)
		}
	}
	g := listOrder(t, w.got)
	r := lruOrder(len(w.want.segs), func(i int) uint64 { return w.want.segs[i].lru })
	if !slices.Equal(g, r) {
		t.Fatalf("LRU order %v, oracle %v", g, r)
	}
	if g, r := w.got.victim(), w.want.victim(); g != r {
		t.Fatalf("next victim %d, oracle %d", g, r)
	}
	live := 0
	for i, e := range w.got.ext {
		if e.lo >= e.hi || (i > 0 && w.got.ext[i-1].hi > e.lo) {
			t.Fatalf("extents not sorted and disjoint: %v", w.got.ext)
		}
		live += int(e.hi - e.lo)
	}
	if live != w.got.Len() {
		t.Fatalf("extents hold %d blocks, Len %d", live, w.got.Len())
	}
}

// FuzzSegmentStoreEquivalence holds the extent segment store to the
// per-block oracle under arbitrary Insert / Touch / TouchRange streams:
// after every step per-block residency, RunEnd, Len, Evictions, the
// segments' LRU order and the next victim must all agree. The first two
// bytes pick the geometry; each following triple is (op, lba, count)
// over a small address space, so runs overlap, split and take each
// other's blocks over constantly.
func FuzzSegmentStoreEquivalence(f *testing.F) {
	f.Add([]byte{2, 4, 0, 0, 4, 0, 2, 4, 0, 1, 2, 3, 0, 0})
	f.Add([]byte{3, 8, 0, 10, 8, 1, 12, 2, 0, 20, 8, 3, 10, 20, 1, 14, 1})
	seeds := make([]byte, 600)
	rand.New(rand.NewSource(5)).Read(seeds)
	f.Add(seeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nseg, segBlocks := 1+int(data[0]%8), 1+int(data[1]%16)
		w := &segTwin{
			t:      t,
			got:    NewSegmentStore(nseg, segBlocks),
			want:   newRefSegmentStore(nseg, segBlocks),
			domain: 72,
		}
		for i := 2; i+2 < len(data); i += 3 {
			w.step(data[i], int64(data[i+1]%64), int(data[i+2]%20))
		}
	})
}

// The fuzz target's seeds only cover short streams; this drives long
// random ones through the same comparison at the controller geometry.
func TestSegmentStoreMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range [][2]int{{27, 32}, {4, 8}, {1, 4}} {
		w := &segTwin{
			t:      t,
			got:    NewSegmentStore(g[0], g[1]),
			want:   newRefSegmentStore(g[0], g[1]),
			domain: 1100,
		}
		for i := 0; i < 3000; i++ {
			w.step(byte(rng.Intn(4)), rng.Int63n(1024), rng.Intn(2*g[1]+1))
		}
	}
}

// refHDCRegion is the hash-indexed pinned set the sorted array
// replaced; Flush returns blocks in table order.
type refHDCRegion struct {
	capacity int
	pinned   *intmap.Map[bool] // block -> dirty
}

func (h *refHDCRegion) Pin(lba int64) bool {
	if h.pinned.Contains(lba) || h.pinned.Len() >= h.capacity {
		return false
	}
	h.pinned.Put(lba, false)
	return true
}

func (h *refHDCRegion) Unpin(lba int64) (was, dirty bool) {
	d, ok := h.pinned.Get(lba)
	if !ok {
		return false, false
	}
	h.pinned.Delete(lba)
	return true, d
}

func (h *refHDCRegion) MarkDirty(lba int64) bool {
	if !h.pinned.Contains(lba) {
		return false
	}
	h.pinned.Put(lba, true)
	return true
}

func (h *refHDCRegion) Flush() []int64 {
	var dirty []int64
	h.pinned.Range(func(b int64, d bool) bool {
		if d {
			dirty = append(dirty, b)
		}
		return true
	})
	for _, b := range dirty {
		h.pinned.Put(b, false)
	}
	return dirty
}

func (h *refHDCRegion) dirtyCount() int {
	n := 0
	h.pinned.Range(func(_ int64, d bool) bool {
		if d {
			n++
		}
		return true
	})
	return n
}

// FuzzHDCRegionEquivalence holds the sorted pinned set to the hash
// oracle under arbitrary Pin / Unpin / MarkDirty / Flush streams. Every
// call's return values must agree (Flush's once the oracle's table-order
// list is sorted), and after every step so must Len, DirtyCount, and
// per-block Contains, RunEnd and NextPinned.
func FuzzHDCRegionEquivalence(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 4, 0, 5, 2, 4, 3, 0, 1, 4})
	seeds := make([]byte, 400)
	rand.New(rand.NewSource(7)).Read(seeds)
	f.Add(seeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity := int(data[0] % 40)
		got := NewHDCRegion(capacity)
		want := &refHDCRegion{capacity: capacity, pinned: intmap.New[bool](capacity)}
		const domain = 48
		for i := 1; i+1 < len(data); i += 2 {
			op, lba := data[i], int64(data[i+1]%domain)
			switch op % 5 {
			case 0, 1:
				if g, r := got.Pin(lba), want.Pin(lba); g != r {
					t.Fatalf("Pin(%d) = %v, oracle %v", lba, g, r)
				}
			case 2:
				gw, gd := got.Unpin(lba)
				rw, rd := want.Unpin(lba)
				if gw != rw || gd != rd {
					t.Fatalf("Unpin(%d) = %v,%v, oracle %v,%v", lba, gw, gd, rw, rd)
				}
			case 3:
				if g, r := got.MarkDirty(lba), want.MarkDirty(lba); g != r {
					t.Fatalf("MarkDirty(%d) = %v, oracle %v", lba, g, r)
				}
			case 4:
				g, r := got.Flush(), want.Flush()
				slices.Sort(r)
				if !slices.Equal(g, r) {
					t.Fatalf("Flush = %v, oracle (sorted) %v", g, r)
				}
			}
			if got.Len() != want.pinned.Len() {
				t.Fatalf("Len = %d, oracle %d", got.Len(), want.pinned.Len())
			}
			if got.DirtyCount() != want.dirtyCount() {
				t.Fatalf("DirtyCount = %d, oracle %d", got.DirtyCount(), want.dirtyCount())
			}
			for b := int64(0); b <= domain; b++ {
				if got.Contains(b) != want.pinned.Contains(b) {
					t.Fatalf("Contains(%d) = %v", b, got.Contains(b))
				}
				end := b
				for want.pinned.Contains(end) {
					end++
				}
				if g := got.RunEnd(b); g != end {
					t.Fatalf("RunEnd(%d) = %d, oracle %d", b, g, end)
				}
				next := int64(math.MaxInt64)
				for c := b; c <= domain; c++ {
					if want.pinned.Contains(c) {
						next = c
						break
					}
				}
				if g := got.NextPinned(b); g != next {
					t.Fatalf("NextPinned(%d) = %d, oracle %d", b, g, next)
				}
			}
		}
	})
}
