package diskthru

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/host"
	"diskthru/internal/trace"
)

// resultFold hashes a Result bit-exactly; NaN latency fields compare
// equal this way where reflect.DeepEqual would not.
func resultFold(r Result) uint64 {
	h := fnv.New64a()
	foldResult(h, r)
	return h.Sum64()
}

// The workload's cached ranking must plan exactly what a fresh count of
// the planner's trace plans: both planners, three stripings, per-disk
// and cooperative (doubled capacity over half the disks, split by runs).
func TestCachedRankingPlansMatchFresh(t *testing.T) {
	w, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.inner.Trace
	for _, p := range []HDCPlanner{PlannerPerfect, PlannerHistory} {
		src := tr
		if p == PlannerHistory {
			src = &trace.Trace{Records: tr.Records[:len(tr.Records)/2]}
		}
		fresh := src.BlockCounts(w.inner.Layout).Ranked()
		cached := w.ranking(p)
		if !slices.Equal(cached, fresh) {
			t.Fatalf("%s: cached ranking differs from a fresh count", p)
		}
		if again := w.ranking(p); &again[0] != &cached[0] {
			t.Fatalf("%s: ranking rebuilt on second use", p)
		}
		for _, stripeKB := range []int{16, 64, 128} {
			unit := stripeKB << 10 / 4096
			for _, perDisk := range []int{1, 64, 512} {
				s := array.NewStriper(8, unit)
				got, want := host.PlanHDC(cached, s, perDisk), host.PlanHDC(fresh, s, perDisk)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s stripe=%dKB perDisk=%d: plan differs", p, stripeKB, perDisk)
				}
				coop := array.NewStriper(4, unit) // mirrored pairs
				got, want = host.PlanHDC(cached, coop, 2*perDisk), host.PlanHDC(fresh, coop, 2*perDisk)
				for d := range got {
					ga, gb := splitRuns(got[d])
					wa, wb := splitRuns(want[d])
					if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gb, wb) {
						t.Fatalf("%s stripe=%dKB perDisk=%d: cooperative split of disk %d differs", p, stripeKB, perDisk, d)
					}
				}
			}
		}
	}
}

// Cells sharing one *Workload build its rankings and bitmaps once,
// concurrently, and read them while other cells build theirs. Under
// -race this must be clean, and every Result must be bit-identical to
// a serial run on a separately built copy of the workload.
func TestSharedWorkloadConcurrentRuns(t *testing.T) {
	var cfgs []Config
	for _, stripeKB := range []int{16, 64, 128} {
		cfg := DefaultConfig().WithSystem(FOR)
		cfg.StripeKB = stripeKB
		hist := cfg.WithHDC(64)
		hist.Planner = PlannerHistory
		cfgs = append(cfgs, cfg, cfg.WithHDC(64), hist)
	}
	serialW, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(serialW, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultFold(r)
	}

	shared, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(cfgs))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker walks the grid from a different start, so
			// first uses of every striping and planner collide.
			for k := range cfgs {
				i := (g + k) % len(cfgs)
				r, err := Run(shared, cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				if got := resultFold(r); got != want[i] {
					errs <- fmt.Errorf("worker %d, config %d (stripe=%dKB hdc=%dKB %s): result differs from serial",
						g, i, cfgs[i].StripeKB, cfgs[i].HDCKB, cfgs[i].Planner)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(shared.derived.bitmaps) != 3 {
		t.Errorf("%d bitmap sets built, want one per striping (3)", len(shared.derived.bitmaps))
	}
}

// MemFootprint charges each ranking and each striping's bitmaps once,
// when first built.
func TestMemFootprintCountsDerivedData(t *testing.T) {
	w, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	base := w.MemFootprint()
	cfg := DefaultConfig().WithSystem(FOR)
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	var bitmapBytes int64
	for _, m := range w.forBitmaps(array.NewStriper(cfg.Disks, cfg.StripeKB<<10/4096)) {
		bitmapBytes += int64(m.SizeBytes())
	}
	if got := w.MemFootprint(); got != base+bitmapBytes {
		t.Fatalf("after one FOR run MemFootprint = %d, want %d + %d bitmap bytes", got, base, bitmapBytes)
	}
	if _, err := Run(w, cfg.WithHDC(64)); err != nil {
		t.Fatal(err)
	}
	rankBytes := int64(len(w.ranking(PlannerPerfect))) * blockCountBytes
	if got := w.MemFootprint(); got != base+bitmapBytes+rankBytes {
		t.Fatalf("after an HDC run MemFootprint = %d, want %d", got, base+bitmapBytes+rankBytes)
	}
}
