package diskthru

import (
	"sync"

	"diskthru/internal/array"
	"diskthru/internal/fslayout"
	"diskthru/internal/stats"
	"diskthru/internal/trace"
)

// derived holds the data a workload's cells compute from the trace, the
// layout and the striping alone: HDC's block ranking (section 6.1) and
// FOR's per-disk continuation bitmaps (section 4). Neither depends on a
// cell's cache, scheduler or seed, so each is built on first use,
// immutable afterwards, and shared read-only by every later cell,
// concurrent ones and mirror replicas included. Builds run under a
// per-value sync.Once outside mu, so cells preparing different
// stripings never wait on each other; mu guards only the bitmap table
// and the byte count MemFootprint charges to the daemon's warm cache.
type derived struct {
	ranked [2]lazy[[]stats.BlockCount] // by planner: [0] perfect, [1] history

	mu      sync.Mutex
	bitmaps map[array.Striper]*lazy[[]*fslayout.Bitmap]
	bytes   int64 // resident bytes of the values built so far
}

// lazy is a value built once, by the first caller of once.Do.
type lazy[T any] struct {
	once sync.Once
	v    T
}

// blockCountBytes is the size of one stats.BlockCount (int64 + int).
const blockCountBytes = 16

// charge adds a finished build's resident bytes.
func (d *derived) charge(n int64) {
	d.mu.Lock()
	d.bytes += n
	d.mu.Unlock()
}

// resident reports the bytes held by the values built so far.
func (d *derived) resident() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// ranking returns every block the planner sees, ranked by access count
// descending and block ascending: PlannerPerfect counts the whole
// disk-level trace, PlannerHistory its first half. The workload must
// carry a materialized trace.
func (w *Workload) ranking(p HDCPlanner) []stats.BlockCount {
	i := 0
	if p == PlannerHistory {
		i = 1
	}
	r := &w.derived.ranked[i]
	r.once.Do(func() {
		t := w.inner.Trace
		if i == 1 {
			t = &trace.Trace{Records: t.Records[:len(t.Records)/2]}
		}
		r.v = t.BlockCounts(w.inner.Layout).Ranked()
		w.derived.charge(int64(len(r.v)) * blockCountBytes)
	})
	return r.v
}

// forBitmaps returns the per-disk FOR continuation bitmaps of the
// workload's layout striped by s, indexed by logical disk.
func (w *Workload) forBitmaps(s array.Striper) []*fslayout.Bitmap {
	d := &w.derived
	d.mu.Lock()
	b := d.bitmaps[s]
	if b == nil {
		if d.bitmaps == nil {
			d.bitmaps = make(map[array.Striper]*lazy[[]*fslayout.Bitmap])
		}
		b = new(lazy[[]*fslayout.Bitmap])
		d.bitmaps[s] = b
	}
	d.mu.Unlock()
	b.once.Do(func() {
		b.v = fslayout.BuildBitmaps(w.inner.Layout, s)
		var n int64
		for _, m := range b.v {
			n += int64(m.SizeBytes())
		}
		d.charge(n)
	})
	return b.v
}
