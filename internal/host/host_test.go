package host

import (
	"fmt"
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/bus"
	"diskthru/internal/disk"
	"diskthru/internal/dist"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/sched"
	"diskthru/internal/sim"
	"diskthru/internal/trace"
	"diskthru/internal/workload"
)

// rig bundles a small array for tests.
type rig struct {
	sim     *sim.Simulator
	disks   []*disk.Disk
	striper array.Striper
	layout  *fslayout.Layout
}

func newRig(t *testing.T, nDisks, unitBlocks int, mutate func(*disk.Config)) *rig {
	t.Helper()
	s := sim.New()
	b := bus.New(s, bus.Ultra160())
	striper := array.NewStriper(nDisks, unitBlocks)
	layout := fslayout.New(1 << 20)
	cfg := disk.Config{
		Geom:         geom.Ultrastar36Z15(),
		Sched:        sched.LOOK,
		CacheBytes:   4 << 20,
		SegmentBytes: 128 << 10,
		MaxSegments:  27,
		Org:          disk.OrgSegment,
		ReadAhead:    disk.RABlind,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	disks := make([]*disk.Disk, nDisks)
	for i := range disks {
		d, err := disk.New(s, b, i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	return &rig{sim: s, disks: disks, striper: striper, layout: layout}
}

func (r *rig) host(t *testing.T, cfg Config) *Host {
	t.Helper()
	h, err := New(r.sim, r.disks, r.striper, r.layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestReplayCompletesAllRecords(t *testing.T) {
	r := newRig(t, 2, 32, nil)
	for i := 0; i < 10; i++ {
		if _, err := r.layout.Alloc(4, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 4})
	}
	h := r.host(t, Config{Streams: 4, CoalesceProb: 1})
	end := h.Replay(tr)
	if end <= 0 {
		t.Fatal("zero makespan")
	}
	stats := Collect(r.disks)
	if got := stats.Accesses(); got != h.IssuedRequests {
		t.Fatalf("disks saw %d requests, host issued %d", got, h.IssuedRequests)
	}
	if h.IssuedRequests < 10 {
		t.Fatalf("issued %d requests for 10 records", h.IssuedRequests)
	}
}

func TestStreamsBoundConcurrency(t *testing.T) {
	// With 1 stream, records are strictly serialized: the makespan is at
	// least the sum of per-record times; with many streams across 2 disks
	// it must shrink.
	makespan := func(streams int) sim.Time {
		r := newRig(t, 2, 32, nil)
		for i := 0; i < 40; i++ {
			r.layout.Alloc(4, 0, nil)
		}
		tr := &trace.Trace{}
		for i := 0; i < 40; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 4})
		}
		h := r.host(t, Config{Streams: streams, CoalesceProb: 1})
		return h.Replay(tr)
	}
	one, many := makespan(1), makespan(16)
	if many >= one {
		t.Fatalf("16 streams (%v) not faster than 1 (%v)", many, one)
	}
}

func TestCoalescingReducesRequests(t *testing.T) {
	issued := func(p float64) uint64 {
		r := newRig(t, 1, 1<<16, nil)
		for i := 0; i < 20; i++ {
			r.layout.Alloc(16, 0, nil)
		}
		tr := &trace.Trace{}
		for i := 0; i < 20; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 16})
		}
		h := r.host(t, Config{Streams: 4, CoalesceProb: p, Seed: 7})
		h.Replay(tr)
		return h.IssuedRequests
	}
	full, none := issued(1), issued(0)
	if full != 20 {
		t.Fatalf("perfect coalescing issued %d requests, want 20", full)
	}
	if none != 20*16 {
		t.Fatalf("no coalescing issued %d requests, want 320", none)
	}
	mid := issued(0.87)
	if mid <= full || mid >= none {
		t.Fatalf("87%% coalescing issued %d, want between %d and %d", mid, full, none)
	}
}

func TestFragmentedFileSplitsRequests(t *testing.T) {
	r := newRig(t, 1, 1<<16, nil)
	// Hand-build a fragmented file by allocating with high fragProb.
	rng := dist.NewRand(12345)
	id, err := r.layout.Alloc(32, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 32}}}
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1})
	h.Replay(tr)
	if h.IssuedRequests < 10 {
		t.Fatalf("fragmented 32-block file issued only %d requests", h.IssuedRequests)
	}
}

func TestRecordPastEOFClamped(t *testing.T) {
	r := newRig(t, 1, 32, nil)
	id, _ := r.layout.Alloc(4, 0, nil)
	tr := &trace.Trace{Records: []trace.Record{
		{File: int32(id), Offset: 2, Blocks: 99}, // clamped to 2 blocks
		{File: int32(id), Offset: 50, Blocks: 1}, // dropped entirely
	}}
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1})
	h.Replay(tr)
	stats := Collect(r.disks)
	if stats.PerDisk[0].RequestedBlocks != 2 {
		t.Fatalf("requested %d blocks, want 2", stats.PerDisk[0].RequestedBlocks)
	}
}

func TestWritesReachDisks(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	id, _ := r.layout.Alloc(8, 0, nil)
	tr := &trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 8, Write: true}}}
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1})
	h.Replay(tr)
	stats := Collect(r.disks)
	var writes uint64
	for _, s := range stats.PerDisk {
		writes += s.Writes
	}
	if writes != 2 { // 8 blocks over 2 disks in 4-block units
		t.Fatalf("writes = %d, want 2", writes)
	}
}

func TestHDCFlushAtEndWritesDirty(t *testing.T) {
	r := newRig(t, 1, 1<<16, func(c *disk.Config) { c.HDCBytes = 1 << 20 })
	id, _ := r.layout.Alloc(4, 0, nil)
	// Pin the whole file, then write it: the write is absorbed.
	plan := PlanHDC((&trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 4}}}).
		BlockCounts(r.layout).Ranked(), r.striper, 4)
	r.disks[0].PinBlocks(plan[0])

	tr := &trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 4, Write: true}}}
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, FlushHDCAtEnd: true})
	h.Replay(tr)
	st := r.disks[0].Stats()
	if st.HDCWriteHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MediaOps != 1 {
		t.Fatalf("flush performed %d media ops, want 1", st.MediaOps)
	}
	if r.disks[0].HDC().DirtyCount() != 0 {
		t.Fatal("dirty blocks survive the run")
	}
}

func TestReplayDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64) {
		r := newRig(t, 4, 8, nil)
		for i := 0; i < 50; i++ {
			r.layout.Alloc(6, 0, nil)
		}
		tr := &trace.Trace{}
		for i := 0; i < 200; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(i % 50), Blocks: 6, Write: i%7 == 0})
		}
		h := r.host(t, Config{Streams: 8, CoalesceProb: 0.87, Seed: 11})
		end := h.Replay(tr)
		return end, h.IssuedRequests
	}
	e1, n1 := run()
	e2, n2 := run()
	if e1 != e2 || n1 != n2 {
		t.Fatalf("non-deterministic replay: (%v,%d) vs (%v,%d)", e1, n1, e2, n2)
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 1, 32, nil)
	for _, cfg := range []Config{
		{Streams: 0, CoalesceProb: 0.5},
		{Streams: 4, CoalesceProb: -0.1},
		{Streams: 4, CoalesceProb: 1.1},
	} {
		if _, err := New(r.sim, r.disks, r.striper, r.layout, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Mismatched striper.
	if _, err := New(r.sim, r.disks, array.NewStriper(3, 32), r.layout, Config{Streams: 1}); err == nil {
		t.Error("mismatched striper accepted")
	}
}

// ---- planner ------------------------------------------------------------------

func TestPlanHDCPicksHottestPerDisk(t *testing.T) {
	l := fslayout.New(1000)
	for i := 0; i < 8; i++ {
		l.Alloc(2, 0, nil) // file i at logical 2i, 2i+1
	}
	s := array.NewStriper(2, 2) // file i entirely on disk i%2
	tr := &trace.Trace{}
	// File 3 hottest (5 accesses), then file 0 (3), file 1 (2), others 1.
	hits := map[int]int{3: 5, 0: 3, 1: 2, 2: 1, 4: 1, 5: 1, 6: 1, 7: 1}
	for f, n := range hits {
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(f), Blocks: 2})
		}
	}
	plan := PlanHDC(tr.BlockCounts(l).Ranked(), s, 2)
	// Disk 1 holds odd files; hottest is file 3 -> its pba 2,3.
	if len(plan[1]) != 2 {
		t.Fatalf("disk1 plan = %v", plan[1])
	}
	want := map[int64]bool{2: true, 3: true}
	for _, p := range plan[1] {
		if !want[p] {
			t.Fatalf("disk1 pinned %v, want blocks of file 3", plan[1])
		}
	}
	// Disk 0 holds even files; hottest is file 0 -> pba 0,1.
	for _, p := range plan[0] {
		if p != 0 && p != 1 {
			t.Fatalf("disk0 pinned %v, want blocks of file 0", plan[0])
		}
	}
}

func TestPlanHDCRespectsCapacityAndEmpty(t *testing.T) {
	l := fslayout.New(100)
	l.Alloc(10, 0, nil)
	tr := &trace.Trace{Records: []trace.Record{{File: 0, Blocks: 10}}}
	s := array.NewStriper(2, 2)
	plan := PlanHDC(tr.BlockCounts(l).Ranked(), s, 3)
	for d, p := range plan {
		if len(p) > 3 {
			t.Fatalf("disk %d pinned %d blocks", d, len(p))
		}
	}
	empty := PlanHDC(tr.BlockCounts(l).Ranked(), s, 0)
	for _, p := range empty {
		if len(p) != 0 {
			t.Fatal("zero-capacity plan non-empty")
		}
	}
}

func TestSizingRules(t *testing.T) {
	// Blind: R_min = t * segment; FOR with small files: t * f.
	if got := MinReadAheadBlocks(128, 32, 4, false); got != 128*32 {
		t.Fatalf("blind Rmin = %d", got)
	}
	if got := MinReadAheadBlocks(128, 32, 4, true); got != 128*4 {
		t.Fatalf("FOR Rmin = %d", got)
	}
	// FOR with large files falls back to the segment bound.
	if got := MinReadAheadBlocks(128, 32, 64, true); got != 128*32 {
		t.Fatalf("FOR large-file Rmin = %d", got)
	}
	if got := MaxHDCBlocks(8, 1024, 4096); got != 8*1024-4096 {
		t.Fatalf("Hmax = %d", got)
	}
	if got := MaxHDCBlocks(1, 10, 4096); got != 0 {
		t.Fatalf("negative Hmax not clamped: %d", got)
	}
}

func TestIssueModeNames(t *testing.T) {
	if IssueAll.String() != "all" || IssueSequential.String() != "sequential" {
		t.Fatal("issue mode names wrong")
	}
}

func TestSequentialIssueSerializesSubRequests(t *testing.T) {
	r := newRig(t, 1, 1<<16, nil)
	id, _ := r.layout.Alloc(8, 0, nil)
	tr := &trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 8}}}
	h := r.host(t, Config{Streams: 1, CoalesceProb: 0, Issue: IssueSequential})
	end := h.Replay(tr)
	if h.IssuedRequests != 8 {
		t.Fatalf("issued %d requests, want 8", h.IssuedRequests)
	}
	// Sequential single-block ops cannot overlap: makespan at least
	// 8 x (command overhead + transfer), far above a single op.
	hAll := func() sim.Time {
		r2 := newRig(t, 1, 1<<16, nil)
		id2, _ := r2.layout.Alloc(8, 0, nil)
		tr2 := &trace.Trace{Records: []trace.Record{{File: int32(id2), Blocks: 8}}}
		h2 := r2.host(t, Config{Streams: 1, CoalesceProb: 0, Issue: IssueAll})
		return h2.Replay(tr2)
	}()
	if end < hAll {
		t.Fatalf("sequential (%v) faster than batched (%v)", end, hAll)
	}
}

func TestMirroredHostReadsBalanceAndWritesDuplicate(t *testing.T) {
	s := sim.New()
	b := bus.New(s, bus.Ultra160())
	striper := array.NewStriper(1, 32)
	layout := fslayout.New(1 << 20)
	for i := 0; i < 20; i++ {
		layout.Alloc(4, 0, nil)
	}
	cfg := disk.Config{
		Geom:         geom.Ultrastar36Z15(),
		Sched:        sched.LOOK,
		CacheBytes:   4 << 20,
		SegmentBytes: 128 << 10,
		MaxSegments:  27,
	}
	disks := make([]*disk.Disk, 2) // one logical drive, two replicas
	for i := range disks {
		d, err := disk.New(s, b, i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	h, err := New(s, disks, striper, layout, Config{
		Streams: 4, CoalesceProb: 1, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	for i := 0; i < 20; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 4, Write: i%2 == 0})
	}
	h.Replay(tr)
	a, bSt := disks[0].Stats(), disks[1].Stats()
	if a.Writes != 10 || bSt.Writes != 10 {
		t.Fatalf("writes = %d/%d, want 10/10", a.Writes, bSt.Writes)
	}
	if a.Reads+bSt.Reads != 10 {
		t.Fatalf("reads = %d+%d, want 10 total", a.Reads, bSt.Reads)
	}
	if a.Reads == 0 || bSt.Reads == 0 {
		t.Fatalf("reads did not balance: %d/%d", a.Reads, bSt.Reads)
	}
}

func TestMirroredReadPrefersPinnedReplica(t *testing.T) {
	s := sim.New()
	b := bus.New(s, bus.Ultra160())
	striper := array.NewStriper(1, 32)
	layout := fslayout.New(1 << 20)
	id, _ := layout.Alloc(4, 0, nil)
	cfg := disk.Config{
		Geom:         geom.Ultrastar36Z15(),
		Sched:        sched.LOOK,
		CacheBytes:   4 << 20,
		SegmentBytes: 128 << 10,
		MaxSegments:  27,
		HDCBytes:     1 << 20,
	}
	disks := make([]*disk.Disk, 2)
	for i := range disks {
		d, err := disk.New(s, b, i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	// Pin the file's blocks only on replica 1.
	disks[1].PinBlocks([]int64{0, 1, 2, 3})
	h, err := New(s, disks, striper, layout, Config{Streams: 1, CoalesceProb: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Replay(&trace.Trace{Records: []trace.Record{{File: int32(id), Blocks: 4}}})
	if got := disks[1].Stats().HDCReadHits; got != 1 {
		t.Fatalf("pinned replica HDC hits = %d, want 1", got)
	}
	if disks[0].Stats().Reads != 0 {
		t.Fatal("read routed to the unpinned replica")
	}
}

func TestPeriodicSyncFlushesDirtyHDC(t *testing.T) {
	r := newRig(t, 1, 1<<16, func(c *disk.Config) { c.HDCBytes = 1 << 20 })
	id, _ := r.layout.Alloc(4, 0, nil)
	r.disks[0].PinBlocks([]int64{0, 1, 2, 3})
	// Long trace of writes to the pinned file with a sync period shorter
	// than the run: dirty blocks must flush mid-run, not only at the end.
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(id), Blocks: 4, Write: true})
		for j := 0; j < 10; j++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(1 + j%9), Blocks: 4})
		}
	}
	for i := 1; i < 10; i++ {
		r.layout.Alloc(4, 0, nil)
	}
	h := r.host(t, Config{Streams: 2, CoalesceProb: 1, SyncHDCEvery: 0.05, FlushHDCAtEnd: true})
	h.Replay(tr)
	st := r.disks[0].Stats()
	if st.Writes < 2 {
		t.Fatalf("periodic sync produced %d media writes", st.Writes)
	}
}

func TestArrayStatsAggregates(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	for i := 0; i < 10; i++ {
		r.layout.Alloc(8, 0, nil)
	}
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 8})
	}
	h := r.host(t, Config{Streams: 2, CoalesceProb: 1})
	h.Replay(tr)
	agg := Collect(r.disks)
	if agg.Accesses() == 0 || agg.MediaBlocks() == 0 {
		t.Fatalf("aggregate empty: %+v", agg)
	}
	if agg.HitRate() < 0 || agg.HitRate() > 1 {
		t.Fatalf("hit rate %v", agg.HitRate())
	}
	if agg.HDCHitRate() != 0 {
		t.Fatal("HDC hits without HDC")
	}
	if agg.BusyTime() <= 0 || agg.MaxBusyTime() <= 0 {
		t.Fatal("busy time missing")
	}
	if agg.MaxBusyTime() > agg.BusyTime() {
		t.Fatal("max busy exceeds total busy")
	}
	empty := ArrayStats{}
	if empty.HitRate() != 0 || empty.HDCHitRate() != 0 {
		t.Fatal("empty aggregate non-zero")
	}
}

func TestBuildBitmapsReExport(t *testing.T) {
	l := fslayout.New(100)
	l.Alloc(4, 0, nil)
	maps := BuildBitmaps(l, array.NewStriper(2, 2))
	if len(maps) != 2 {
		t.Fatalf("%d bitmaps", len(maps))
	}
}

// BenchmarkPlanHDC is the per-cell planning cost once the workload's
// ranking is shared: one walk of the Web trace's ranked blocks, filling
// 8 disks' pinned regions at the perfbench web-replay scale (2 MB
// scaled by 0.05, 25 blocks per disk) and at the paper's full 2 MB.
func BenchmarkPlanHDC(b *testing.B) {
	w, err := workload.Web(workload.DefaultWeb(0.05))
	if err != nil {
		b.Fatal(err)
	}
	ranked := w.Trace.BlockCounts(w.Layout).Ranked()
	for _, perDisk := range []int{25, 512} {
		b.Run(fmt.Sprintf("perDisk=%d", perDisk), func(b *testing.B) {
			s := array.NewStriper(8, 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PlanHDC(ranked, s, perDisk)
			}
		})
	}
}
