// Package cache implements the disk-controller cache organizations the
// paper studies:
//
//   - SegmentStore: the conventional organization — a fixed number of
//     segments, each holding one sequential stream, replaced whole under
//     LRU (section 2.1).
//   - BlockStore: the block-based organization introduced for FOR —
//     blocks allocated on demand from a free pool and evicted
//     individually under MRU (the paper's choice) or LRU (section 4).
//   - HDCRegion: the host-guided, pinned portion of the cache with the
//     pin_blk / unpin_blk / flush_hdc command surface (section 5).
//
// All addresses are per-disk physical block numbers. None of these types
// hold data; the simulator only tracks residency.
//
// Callers ask about contiguous block ranges, so the interface is
// range-shaped (RunEnd, TouchRange, Insert) and the indices follow the
// shape of what they hold. A segment holds one sequential run, so the
// segment store is a sorted array of disjoint extents and the pinned
// set a sorted block array, both searched by binary search. The block
// store's recency order is per block by design, so it keeps an
// open-addressed int64 table (internal/intmap), pooled across replay
// cells via Release.
package cache

import (
	"math"
	"sync"

	"diskthru/internal/intmap"
)

// Store is the read-ahead (replaceable) portion of a controller cache.
type Store interface {
	// RunEnd returns the end of the run of resident blocks starting at
	// lba: every block of [lba, RunEnd(lba)) is resident and
	// RunEnd(lba) is not. It returns lba when lba is not resident.
	RunEnd(lba int64) int64
	// TouchRange records a hit on the resident blocks of
	// [lba, lba+count), updating recency as one hit per block in
	// ascending order would.
	TouchRange(lba int64, count int)
	// Insert records that blocks [lba, lba+count) arrived from media,
	// evicting as needed.
	Insert(lba int64, count int)
	// Len reports resident blocks; Capacity the maximum.
	Len() int
	Capacity() int
	// Evictions reports how many blocks have been displaced so far.
	Evictions() uint64
	// Name identifies the organization for reports.
	Name() string
	// Release returns pooled index storage for reuse by the next replay
	// cell. The store must not be used afterwards.
	Release()
}

// Snapshot is a point-in-time occupancy reading of a Store, taken by the
// telemetry sampler.
type Snapshot struct {
	Len, Capacity int
	Evictions     uint64
}

// Snap reads a store's occupancy counters.
func Snap(s Store) Snapshot {
	return Snapshot{Len: s.Len(), Capacity: s.Capacity(), Evictions: s.Evictions()}
}

// slotPool recycles block -> node index tables across replay cells.
var slotPool intmap.Pool[int32]

// ---- Segment store ---------------------------------------------------------

// extent is a run of resident blocks [lo, hi) owned by one segment.
type extent struct {
	lo, hi int64
	seg    int32
}

type segment struct {
	lo, hi int64  // run last inserted; the segment's extents lie inside it
	live   int    // blocks the segment still owns
	lru    uint64 // last-use stamp
}

// SegmentStore is the conventional segment-based controller cache: up to
// NumSegments streams, whole-segment LRU replacement, at most
// SegmentBlocks blocks per segment.
//
// Residency is one sorted array of disjoint extents searched by binary
// search. Each block has at most one owner: a newer segment whose run
// overlaps an older one takes the shared blocks over, trimming or
// splitting the older segment's extents without counting an eviction.
type SegmentStore struct {
	segBlocks int
	segs      []segment
	ext       []extent // sorted by lo, disjoint
	resident  int
	clock     uint64
	evicted   uint64
}

// NewSegmentStore returns a store with numSegments segments of
// segmentBlocks blocks each.
func NewSegmentStore(numSegments, segmentBlocks int) *SegmentStore {
	if numSegments <= 0 || segmentBlocks <= 0 {
		panic("cache: segment store needs positive dimensions")
	}
	return &SegmentStore{
		segBlocks: segmentBlocks,
		segs:      make([]segment, numSegments),
		// One extent per segment plus a split's worth of headroom;
		// heavier fragmentation grows the array once and keeps it.
		ext: make([]extent, 0, 2*numSegments+2),
	}
}

// Name implements Store.
func (s *SegmentStore) Name() string { return "segment" }

// Capacity implements Store.
func (s *SegmentStore) Capacity() int { return len(s.segs) * s.segBlocks }

// Len implements Store.
func (s *SegmentStore) Len() int { return s.resident }

// Evictions implements Store.
func (s *SegmentStore) Evictions() uint64 { return s.evicted }

// NumSegments reports the segment count.
func (s *SegmentStore) NumSegments() int { return len(s.segs) }

// Release implements Store. A segment store pools nothing.
func (s *SegmentStore) Release() {}

// search returns the index of the first extent ending after lba.
// The loop halves a window of fixed shape regardless of the comparison,
// so the compiler emits a conditional move instead of a branch the
// hardware would mispredict on every other probe.
func (s *SegmentStore) search(lba int64) int {
	ext := s.ext
	if len(ext) == 0 {
		return 0
	}
	base, n := 0, len(ext)
	for n > 1 {
		half := n >> 1
		if ext[base+half].hi <= lba {
			base += half
		}
		n -= half
	}
	if ext[base].hi <= lba {
		base++
	}
	return base
}

// RunEnd implements Store.
func (s *SegmentStore) RunEnd(lba int64) int64 {
	i := s.search(lba)
	if i == len(s.ext) || s.ext[i].lo > lba {
		return lba
	}
	end := s.ext[i].hi
	for i++; i < len(s.ext) && s.ext[i].lo == end; i++ {
		end = s.ext[i].hi
	}
	return end
}

// TouchRange implements Store. Owners are stamped once per extent in
// ascending order. A segment's final stamp then sits where its last
// block in the range sits, which is the relative LRU order one Touch per
// block would leave.
func (s *SegmentStore) TouchRange(lba int64, count int) {
	if count <= 0 {
		return
	}
	end := lba + int64(count)
	for i := s.search(lba); i < len(s.ext) && s.ext[i].lo < end; i++ {
		s.clock++
		s.segs[s.ext[i].seg].lru = s.clock
	}
}

// victim returns the least-recently-used segment, lowest index first on
// ties.
func (s *SegmentStore) victim() int32 {
	v := int32(0)
	for i := 1; i < len(s.segs); i++ {
		if s.segs[i].lru < s.segs[v].lru {
			v = int32(i)
		}
	}
	return v
}

// Insert implements Store. The incoming run is treated as a new stream:
// it takes over the least-recently-used segment, evicting that segment's
// entire previous contents (the paper's whole-victim replacement). Runs
// longer than a segment are truncated to the segment size.
func (s *SegmentStore) Insert(lba int64, count int) {
	if count <= 0 {
		return
	}
	if count > s.segBlocks {
		count = s.segBlocks
	}
	v := s.victim()
	s.evict(v)
	s.place(lba, lba+int64(count), v)
	s.clock++
	s.segs[v].lru = s.clock
}

// evict drops every extent segment v owns, counting its blocks as
// evictions.
func (s *SegmentStore) evict(v int32) {
	sg := &s.segs[v]
	if sg.live == 0 {
		return
	}
	s.evicted += uint64(sg.live)
	s.resident -= sg.live
	sg.live = 0
	i := s.search(sg.lo)
	w, j := i, i
	for ; j < len(s.ext) && s.ext[j].lo < sg.hi; j++ {
		if s.ext[j].seg != v {
			s.ext[w] = s.ext[j]
			w++
		}
	}
	s.ext = append(s.ext[:w], s.ext[j:]...)
}

// place makes segment v the owner of [lo, hi). Overlapped extents of
// other segments are trimmed, split or dropped; their blocks change
// owner without counting an eviction.
func (s *SegmentStore) place(lo, hi int64, v int32) {
	i := s.search(lo)
	j := i
	var left, right extent
	for ; j < len(s.ext) && s.ext[j].lo < hi; j++ {
		e := s.ext[j]
		taken := min(e.hi, hi) - max(e.lo, lo)
		s.segs[e.seg].live -= int(taken)
		s.resident -= int(taken)
		if e.lo < lo {
			left = extent{lo: e.lo, hi: lo, seg: e.seg}
		}
		if e.hi > hi {
			right = extent{lo: hi, hi: e.hi, seg: e.seg}
		}
	}
	k := 1
	if left.hi > left.lo {
		k++
	}
	if right.hi > right.lo {
		k++
	}
	// Replace ext[i:j] with left?, the new extent, right?.
	if grow := k - (j - i); grow > 0 {
		n := len(s.ext)
		for ; grow > 0; grow-- {
			s.ext = append(s.ext, extent{})
		}
		copy(s.ext[i+k:], s.ext[j:n])
	} else if grow < 0 {
		s.ext = append(s.ext[:i+k], s.ext[j:]...)
	}
	if left.hi > left.lo {
		s.ext[i] = left
		i++
	}
	s.ext[i] = extent{lo: lo, hi: hi, seg: v}
	if right.hi > right.lo {
		s.ext[i+1] = right
	}
	sg := &s.segs[v]
	sg.lo, sg.hi, sg.live = lo, hi, int(hi-lo)
	s.resident += sg.live
}

// ---- Block store -----------------------------------------------------------

// EvictPolicy selects which resident block a BlockStore displaces.
type EvictPolicy int

const (
	// EvictLRU displaces the least recently used block.
	EvictLRU EvictPolicy = iota
	// EvictMRU displaces the most recently used block — the paper's
	// policy for FOR, which protects older streams from a burst.
	EvictMRU
)

// String names the policy.
func (p EvictPolicy) String() string {
	if p == EvictMRU {
		return "MRU"
	}
	return "LRU"
}

// nilNode terminates the recency and free lists.
const nilNode = int32(-1)

// blockNode is one resident block. Nodes live in a flat slab and link
// by index, so steady-state churn allocates nothing and the recency
// list walks stay in cache.
type blockNode struct {
	lba        int64
	prev, next int32
}

// nodePool recycles node slabs across replay cells.
var nodePool = sync.Pool{
	New: func() any {
		s := make([]blockNode, 0, 1024)
		return &s
	},
}

// BlockStore is the block-based cache organization: a pool of capacity
// blocks assigned to streams on demand, evicted one block at a time.
type BlockStore struct {
	capacity int
	policy   EvictPolicy
	index    *intmap.Map[int32] // block -> node slab index
	nodes    []blockNode
	slab     *[]blockNode // pooled backing-array handle
	free     int32        // free-list head
	// Recency list: head is most recent, tail least recent.
	head, tail int32
	evicted    uint64
}

// NewBlockStore returns an empty pool of capacity blocks using the given
// eviction policy.
func NewBlockStore(capacity int, policy EvictPolicy) *BlockStore {
	if capacity <= 0 {
		panic("cache: block store needs positive capacity")
	}
	slab := nodePool.Get().(*[]blockNode)
	return &BlockStore{
		capacity: capacity,
		policy:   policy,
		index:    slotPool.Get(capacity),
		nodes:    (*slab)[:0],
		slab:     slab,
		free:     nilNode,
		head:     nilNode,
		tail:     nilNode,
	}
}

// Name implements Store.
func (s *BlockStore) Name() string { return "block-" + s.policy.String() }

// Capacity implements Store.
func (s *BlockStore) Capacity() int { return s.capacity }

// Len implements Store.
func (s *BlockStore) Len() int { return s.index.Len() }

// Evictions implements Store.
func (s *BlockStore) Evictions() uint64 { return s.evicted }

// Policy reports the eviction policy.
func (s *BlockStore) Policy() EvictPolicy { return s.policy }

// Release implements Store: index table and node slab go back to their
// pools.
func (s *BlockStore) Release() {
	slotPool.Put(s.index)
	s.index = nil
	*s.slab = s.nodes[:0]
	nodePool.Put(s.slab)
	s.slab = nil
	s.nodes = nil
}

// RunEnd implements Store. Blocks are indexed one by one, so it probes
// each block of the run.
func (s *BlockStore) RunEnd(lba int64) int64 {
	for s.index.Contains(lba) {
		lba++
	}
	return lba
}

// alloc takes a node from the free list, or extends the slab.
func (s *BlockStore) alloc(lba int64) int32 {
	if n := s.free; n != nilNode {
		s.free = s.nodes[n].next
		s.nodes[n] = blockNode{lba: lba, prev: nilNode, next: nilNode}
		return n
	}
	s.nodes = append(s.nodes, blockNode{lba: lba, prev: nilNode, next: nilNode})
	return int32(len(s.nodes) - 1)
}

func (s *BlockStore) unlink(n int32) {
	nd := &s.nodes[n]
	if nd.prev != nilNode {
		s.nodes[nd.prev].next = nd.next
	} else {
		s.head = nd.next
	}
	if nd.next != nilNode {
		s.nodes[nd.next].prev = nd.prev
	} else {
		s.tail = nd.prev
	}
	nd.prev, nd.next = nilNode, nilNode
}

func (s *BlockStore) pushFront(n int32) {
	s.nodes[n].next = s.head
	if s.head != nilNode {
		s.nodes[s.head].prev = n
	}
	s.head = n
	if s.tail == nilNode {
		s.tail = n
	}
}

// TouchRange implements Store. Under LRU a hit promotes each block in
// turn; under MRU it does not — MRU recency is insertion order, so that
// a burst of new streams evicts its own freshly-fetched blocks rather
// than the blocks of established streams (the protection the paper's
// MRU choice is after). Promoting on hit would instead make every hit block the next
// victim, which inverts the policy's purpose on reuse-heavy workloads.
func (s *BlockStore) TouchRange(lba int64, count int) {
	if s.policy == EvictMRU {
		return
	}
	for i := 0; i < count; i++ {
		if n, ok := s.index.Get(lba + int64(i)); ok {
			s.unlink(n)
			s.pushFront(n)
		}
	}
}

// Insert implements Store. Each block of the run is added most-recent
// first; when the pool is full, a victim is chosen by the eviction
// policy. Under MRU the victim is the most recently used block other
// than those inserted by this same call, so a long read-ahead cannot
// evict its own head.
func (s *BlockStore) Insert(lba int64, count int) {
	for i := 0; i < count; i++ {
		b := lba + int64(i)
		if n, ok := s.index.Get(b); ok {
			s.unlink(n)
			s.pushFront(n)
			continue
		}
		if s.index.Len() >= s.capacity {
			s.evictOne(lba, i)
		}
		n := s.alloc(b)
		s.index.Put(b, n)
		s.pushFront(n)
	}
}

// evictOne removes one block. runStart/len identify the in-flight run so
// MRU can skip blocks it just inserted.
func (s *BlockStore) evictOne(runStart int64, runLen int) {
	victim := nilNode
	switch s.policy {
	case EvictMRU:
		for n := s.head; n != nilNode; n = s.nodes[n].next {
			if lba := s.nodes[n].lba; lba >= runStart && lba < runStart+int64(runLen) {
				continue
			}
			victim = n
			break
		}
		if victim == nilNode {
			victim = s.tail
		}
	default: // EvictLRU
		victim = s.tail
	}
	s.unlink(victim)
	s.index.Delete(s.nodes[victim].lba)
	s.nodes[victim].next = s.free
	s.free = victim
	s.evicted++
}

// ---- HDC region -------------------------------------------------------------

// HDCRegion is the host-managed, pinned portion of a controller cache.
// Pinned blocks are never replaced; dirty pinned blocks accumulate until
// the host issues flush_hdc.
//
// The pinned set is a sorted block array with parallel dirty flags. The
// planner pins a fixed set once per period, so lookups (binary search)
// dominate; the live victim cache's Pin/Unpin pay a sorted insert or
// delete.
type HDCRegion struct {
	capacity int
	blocks   []int64 // pinned blocks, ascending
	dirty    []bool  // dirty[i] is blocks[i]'s flag
	ndirty   int
}

// NewHDCRegion returns a region able to pin capacity blocks. A zero
// capacity is legal and models a drive with HDC disabled.
func NewHDCRegion(capacity int) *HDCRegion {
	if capacity < 0 {
		panic("cache: negative HDC capacity")
	}
	h := &HDCRegion{capacity: capacity}
	if capacity > 0 {
		h.blocks = make([]int64, 0, capacity)
		h.dirty = make([]bool, 0, capacity)
	}
	return h
}

// Capacity reports the maximum number of pinned blocks.
func (h *HDCRegion) Capacity() int { return h.capacity }

// Len reports currently pinned blocks.
func (h *HDCRegion) Len() int { return len(h.blocks) }

// search returns the index of the first pinned block >= lba and whether
// it is lba itself.
func (h *HDCRegion) search(lba int64) (int, bool) {
	b := h.blocks
	if len(b) == 0 {
		return 0, false
	}
	base, n := 0, len(b)
	for n > 1 { // branch-free, as in SegmentStore.search
		half := n >> 1
		if b[base+half] < lba {
			base += half
		}
		n -= half
	}
	if b[base] < lba {
		base++
	}
	return base, base < len(b) && b[base] == lba
}

// Contains reports whether the block is pinned.
func (h *HDCRegion) Contains(lba int64) bool {
	_, ok := h.search(lba)
	return ok
}

// RunEnd returns the end of the run of pinned blocks starting at lba,
// or lba when lba is not pinned. Blocks are distinct and sorted, so
// blocks[j] - blocks[i] == j - i exactly while the run from i is
// unbroken, and the run's end is found by binary search too.
func (h *HDCRegion) RunEnd(lba int64) int64 {
	i, ok := h.search(lba)
	if !ok {
		return lba
	}
	lo, hi := i+1, len(h.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.blocks[m]-lba == int64(m-i) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lba + int64(lo-i)
}

// NextPinned returns the first pinned block at or after lba, or
// math.MaxInt64 when there is none.
func (h *HDCRegion) NextPinned(lba int64) int64 {
	i, _ := h.search(lba)
	if i == len(h.blocks) {
		return math.MaxInt64
	}
	return h.blocks[i]
}

// Pin implements pin_blk: it marks the block non-replaceable. It reports
// false when the region is full or the block is already pinned.
func (h *HDCRegion) Pin(lba int64) bool {
	i, ok := h.search(lba)
	if ok || len(h.blocks) >= h.capacity {
		return false
	}
	h.blocks = append(h.blocks, 0)
	copy(h.blocks[i+1:], h.blocks[i:])
	h.blocks[i] = lba
	h.dirty = append(h.dirty, false)
	copy(h.dirty[i+1:], h.dirty[i:])
	h.dirty[i] = false
	return true
}

// Unpin implements unpin_blk. It reports whether the block was pinned,
// and whether it was dirty (the caller must then write it back).
func (h *HDCRegion) Unpin(lba int64) (was, dirty bool) {
	i, ok := h.search(lba)
	if !ok {
		return false, false
	}
	dirty = h.dirty[i]
	if dirty {
		h.ndirty--
	}
	h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
	h.dirty = append(h.dirty[:i], h.dirty[i+1:]...)
	return true, dirty
}

// MarkDirty records a write absorbed by a pinned block. It reports false
// if the block is not pinned.
func (h *HDCRegion) MarkDirty(lba int64) bool {
	i, ok := h.search(lba)
	if !ok {
		return false
	}
	if !h.dirty[i] {
		h.dirty[i] = true
		h.ndirty++
	}
	return true
}

// Flush implements flush_hdc: it returns the dirty pinned blocks in
// ascending order and clears their dirty flags. The caller schedules the
// actual media writes.
func (h *HDCRegion) Flush() []int64 {
	if h.ndirty == 0 {
		return nil
	}
	out := make([]int64, 0, h.ndirty)
	for i, d := range h.dirty {
		if d {
			out = append(out, h.blocks[i])
			h.dirty[i] = false
		}
	}
	h.ndirty = 0
	return out
}

// DirtyCount reports how many pinned blocks are currently dirty.
func (h *HDCRegion) DirtyCount() int { return h.ndirty }
