package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload before
// timing starts; setup_s is the median, so one slow build does not
// move it.
const setupRepeats = 3

// minCellSamples is the cell count a run collects before it stops, even
// past its time budget: cell_tail_ms is the 95th percentile, and ten
// samples must lie beyond it.
const minCellSamples = 200

// tailQuantile is the percentile cell_tail_ms reports. It lies inside
// the slowest kind of cell of each grid (the slowest 1 of 12 on
// web-replay, 2 of 18 on fleet-sweep) rather than on the gap between
// two kinds, where the 90th percentile of fleet-sweep fell: there a
// few cells more or less on either side moved it by a tenth.
const tailQuantile = 0.95

// exactCounts names the deterministic work counters every pass records.
// They must repeat bit for bit across passes and across runs at one
// seed: a change that moves one changed the work, not the timing.
var exactCounts = []string{
	"sim.events", "disk.requests", "disk.media_ops", "disk.media_blocks",
	"journal.appends", "serve.cells_simulated", "serve.cells_injected",
}

// workload is one prepared benchmark workload: inputs built, reference
// outputs known. pass runs the whole cell grid once, cold then warm;
// expected lists the digest each of a pass's outputs must have, as the
// untimed reference computation in setup produced them.
type workload interface {
	pass(tr *tracer) (passRun, error)
	expected() []uint64
	close() error
}

// output is one checked result of a pass: a replay cell's digest, or a
// fleet sweep's rendered table. cells is how many cells it covers, so a
// mismatch counts every one of them as failed.
type output struct {
	label  string
	digest uint64
	cells  int
	err    error
}

// passRun is everything one pass measured.
type passRun struct {
	sweep, warm time.Duration // host wall time: cold pass, warm repeat
	cpu         time.Duration // process user+sys during the cold pass
	allocBytes  uint64        // heap bytes allocated during the cold pass
	cellWall    []time.Duration
	cellEvents  uint64        // simulated events fired in timed cells
	cellHost    time.Duration // host time of those cells
	outputs     []output      // cold and warm outputs, in a fixed order
	counts      map[string]uint64
	layer       map[string]float64 // per-layer values, median over passes
	wallSpeed   float64            // host speed around an untraced pass, for wall times
	cpuSpeed    float64            // and for CPU times
}

// meter brackets the cold part of a pass: wall clock, process CPU and
// heap allocation, all read from outside the program.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: processCPU(), alloc: ms.TotalAlloc}
}

// stop fills the pass's cold-sweep fields.
func (m meter) stop(p *passRun) {
	p.sweep = time.Since(m.t0)
	p.cpu = processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - m.alloc
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's maximum resident set size so far.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// runResult is what one benchmark invocation measured.
type runResult struct {
	setup     []time.Duration
	setupSpd  []float64 // host wall-time speed around each set-up
	untraced  []passRun
	traced    []passRun
	attempted int
	failed    int
	countsOK  bool
	refOK     bool   // setup's digests matched the committed reference (always true off the default seed)
	digest    uint64 // combined digest of setup's reference outputs
	profile   *profileShares
	spans     *tracer
	speed     speedometer // calibration blocks around the set-ups and untraced passes
}

// runOpts selects what one invocation does.
type runOpts struct {
	seed   int64
	budget time.Duration
	traced bool
	dir    string // scratch for daemon state dirs, removed after the run
	keep   string // directory for the CPU profile, kept after the run
}

// measure sets the workload up setupRepeats times, then runs passes
// until the budget is spent and at least minCellSamples cells ran. A
// traced run spends the first half untraced and the second half with
// spans and a CPU profile, so the difference is the tracing overhead.
// Every set-up and every pass starts from a collected heap; before
// each set-up and untraced pass, and after the last, a calibration
// block measures the host's speed (speed.go).
func measure(sp spec, o runOpts) (*runResult, error) {
	res := &runResult{countsOK: true, refOK: true, speed: speedometer{threads: sp.threads}}
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		res.speed.sample()
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = sp.setup(o.seed, o.dir); err != nil {
			return nil, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	defer w.close()

	want := w.expected()
	res.digest = combine(want)
	if ref, ok := referenceFor(sp.name, o.seed); ok && ref != res.digest {
		res.refOK = false
	}
	check := func(p *passRun) {
		for i, out := range p.outputs {
			res.attempted += out.cells
			if !res.refOK || out.err != nil || i >= len(want) || out.digest != want[i] {
				res.failed += out.cells
			}
		}
		if len(p.outputs) != len(want) {
			res.failed += len(want)
		}
		if len(res.untraced) > 0 {
			for _, k := range exactCounts {
				if p.counts[k] != res.untraced[0].counts[k] {
					res.countsOK = false
				}
			}
		}
	}

	start := time.Now()
	untracedBudget := o.budget
	if o.traced {
		untracedBudget = o.budget / 2
	}
	cells := 0
	for len(res.untraced) == 0 || time.Since(start) < untracedBudget || (!o.traced && cells < minCellSamples) {
		res.speed.sample()
		runtime.GC()
		p, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		check(&p)
		cells += len(p.cellWall)
		res.untraced = append(res.untraced, p)
	}
	res.speed.sample()
	for i := range res.setup {
		wall, _ := res.speed.around(i)
		res.setupSpd = append(res.setupSpd, wall)
	}
	for i := range res.untraced {
		p := &res.untraced[i]
		p.wallSpeed, p.cpuSpeed = res.speed.around(setupRepeats + i)
	}
	if !o.traced {
		return res, nil
	}
	res.spans = newTracer()
	stopProfile, err := startProfile(o.keep, sp.name, o.seed)
	if err != nil {
		return nil, err
	}
	tstart := time.Now()
	for len(res.traced) == 0 || time.Since(tstart) < o.budget-untracedBudget {
		runtime.GC()
		p, err := w.pass(res.spans)
		if err != nil {
			return nil, err
		}
		check(&p)
		res.traced = append(res.traced, p)
	}
	if res.profile, err = stopProfile(); err != nil {
		return nil, err
	}
	return res, nil
}

// combine folds a pass's output digests into the one value the
// committed reference records per workload.
func combine(ds []uint64) uint64 {
	var d digest
	for _, v := range ds {
		d.u(v)
	}
	return d.sum()
}

// digest folds values bit-exactly: floats by their IEEE bits, so any
// change in a simulated statistic, however small, changes the digest.
type digest struct{ buf []byte }

func (d *digest) u(v uint64)  { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digest) f(v float64) { d.u(math.Float64bits(v)) }
func (d *digest) s(v string)  { d.u(uint64(len(v))); d.buf = append(d.buf, v...) }
func (d *digest) sum() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(d.buf) // hash.Hash writes never fail
	return h.Sum64()
}

func secondsOf(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOf applies f to every pass and takes the median.
func medianOf(ps []passRun, f func(p passRun) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return quantile(v, 0.5)
}
