package main

import (
	"errors"
	"fmt"
	"time"

	"diskthru"
	"diskthru/internal/probe"
)

// Scales of the two server traces. The web trace is the Quick scale of
// the experiment drivers (fig7/fig8); the file-server trace is twice
// Quick so a pass does comparable work at both stream counts.
const (
	webScale  = 0.05
	fileScale = 0.01
	// synRequests is the synthetic trace length (Quick scale).
	synRequests = 2500
)

// hdcKB scales the paper's 2-MB host-guided region with the trace, as
// the experiment drivers do, so the pinned fraction of the footprint
// matches the paper's.
func hdcKB(scale float64) int {
	kb := int(2048*scale + 0.5)
	if kb < 4 {
		kb = 4
	}
	return kb
}

// cellSpec is one replay configuration of a grid.
type cellSpec struct {
	label string
	cfg   diskthru.Config
}

// replayGrid is a fixed trace replayed over a configuration grid:
// web-replay and file-rw. The trace is built in setup; every pass
// replays the same inputs, so each pass is already warm and the warm
// repeat is the pass itself.
type replayGrid struct {
	w     *diskthru.Workload
	cells []cellSpec
	build time.Duration
	want  []uint64
}

func (g *replayGrid) close() error       { return nil }
func (g *replayGrid) expected() []uint64 { return g.want }

func (g *replayGrid) pass(tr *tracer) (passRun, error) {
	p := passRun{counts: map[string]uint64{}, layer: map[string]float64{}}
	root := tr.start("pass", -1, "")
	m := startMeter()
	var agg replayAgg
	for _, c := range g.cells {
		agg.run(&p, tr, root, g.w, c)
	}
	m.stop(&p)
	tr.end(root)
	p.warm = p.sweep
	agg.finish(&p)
	p.layer["workload.build_ms"] = ms(g.build)
	addWorkloadShape(&p, g.w)
	return p, nil
}

// replayAgg accumulates the simulated statistics of a pass's cells.
type replayAgg struct {
	hits, hdcHits     float64
	nCells, nHDC      int
	media, requested  uint64
	diskBusy, busBusy float64
	virtual           float64
}

// run times one diskthru.Run call and records its outputs.
func (a *replayAgg) run(p *passRun, tr *tracer, parent int, w *diskthru.Workload, c cellSpec) {
	prog := probe.NewProgress()
	cfg := c.cfg
	cfg.Progress = prog
	sp := tr.start("diskthru.Run", parent, c.label)
	t0 := time.Now()
	res, err := diskthru.Run(w, cfg)
	wall := time.Since(t0)
	tr.end(sp)
	snap := prog.Snapshot()
	p.cellWall = append(p.cellWall, wall)
	p.cellHost += wall
	p.cellEvents += snap.Events
	p.counts["sim.events"] += snap.Events
	p.outputs = append(p.outputs, output{label: c.label, digest: resultDigest(res), cells: 1, err: err})
	if err != nil {
		return
	}
	p.counts["disk.requests"] += res.Requests
	p.counts["disk.media_blocks"] += res.MediaBlocks
	a.media += res.MediaBlocks
	a.requested += res.RequestedBlocks
	for _, d := range res.PerDisk {
		p.counts["disk.media_ops"] += d.MediaOps
		a.diskBusy += d.BusySeconds
	}
	a.busBusy += res.BusSeconds
	a.virtual += snap.SimSeconds
	a.hits += res.HitRate
	a.nCells++
	if cfg.HDCKB > 0 {
		a.hdcHits += res.HDCHitRate
		a.nHDC++
	}
}

// finish stores the pass's simulated per-layer values.
func (a *replayAgg) finish(p *passRun) {
	if a.nCells > 0 {
		p.layer["cache.hit_rate"] = a.hits / float64(a.nCells)
	}
	if a.nHDC > 0 {
		p.layer["cache.hdc_hit_rate"] = a.hdcHits / float64(a.nHDC)
	}
	if a.media > 0 {
		p.layer["disk.ra_waste"] = float64(a.media-min(a.media, a.requested)) / float64(a.media)
	}
	p.layer["disk.busy_s"] = a.diskBusy
	p.layer["bus.busy_s"] = a.busBusy
	p.layer["sim.virtual_s"] = a.virtual
}

// resultDigest folds every simulated statistic of a replay bit-exactly:
// I/O time, hit rates, block and op counts, bus load, and each disk's
// counters.
func resultDigest(r diskthru.Result) uint64 {
	var d digest
	d.f(r.IOTime)
	d.f(r.HitRate)
	d.f(r.HDCHitRate)
	d.u(r.MediaBlocks)
	d.u(r.RequestedBlocks)
	d.u(r.Requests)
	d.f(r.BusSeconds)
	d.f(r.BusUtilization)
	d.u(r.Retries)
	d.u(r.Timeouts)
	d.u(r.Redirects)
	for _, k := range r.PerDisk {
		d.u(k.Reads)
		d.u(k.Writes)
		d.f(k.HitRate)
		d.f(k.HDCHitRate)
		d.u(k.MediaOps)
		d.u(k.MediaBlocks)
		d.u(k.RequestedBlocks)
		d.f(k.BusySeconds)
		d.u(k.Retries)
		d.u(k.Remaps)
		d.u(k.Dropped)
		d.f(k.RecoverySeconds)
		d.u(k.Timeouts)
	}
	return d.sum()
}

func addWorkloadShape(p *passRun, ws ...*diskthru.Workload) {
	for _, w := range ws {
		p.layer["workload.records"] += float64(w.Records())
		p.layer["workload.files"] += float64(w.Files())
		p.layer["workload.mem_mb"] += float64(w.MemFootprint()) / (1 << 20)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// systemArms are the {Segm, FOR} x {HDC off, on} arms of Figures 7-12.
func systemArms(base diskthru.Config, label string, hdc int) []cellSpec {
	var out []cellSpec
	for _, sys := range []diskthru.System{diskthru.Segm, diskthru.FOR} {
		for _, kb := range []int{0, hdc} {
			cfg := base.WithSystem(sys).WithHDC(kb)
			name := sys.String()
			if kb > 0 {
				name += "+HDC"
			}
			out = append(out, cellSpec{label: label + "/" + name, cfg: cfg})
		}
	}
	return out
}

// setupWebReplay builds the web-server trace once and lays out a
// fig7/fig8-shaped grid: {Segm, FOR} x {HDC off, on} x 3 striping units
// at the trace's own 16 streams. The seed reaches only the host's
// request-coalescing coin flips: WebWorkload takes no seed.
func setupWebReplay(seed int64, _ string) (workload, error) {
	t0 := time.Now()
	w, err := diskthru.WebWorkload(webScale)
	if err != nil {
		return nil, err
	}
	g := &replayGrid{w: w, build: time.Since(t0)}
	for _, stripe := range []int{16, 64, 128} {
		cfg := diskthru.DefaultConfig()
		cfg.Seed = seed
		cfg.StripeKB = stripe
		g.cells = append(g.cells, systemArms(cfg, fmt.Sprintf("stripe=%d", stripe), hdcKB(webScale))...)
	}
	return g, g.reference()
}

// setupFileRW builds the file-server trace once and replays it under
// {Segm, FOR} x {HDC off, on} at 128 and 1024 streams: the write-back,
// dirty-HDC flush and deep-queue paths. FileServerWorkload takes no
// seed either.
func setupFileRW(seed int64, _ string) (workload, error) {
	t0 := time.Now()
	w, err := diskthru.FileServerWorkload(fileScale)
	if err != nil {
		return nil, err
	}
	g := &replayGrid{w: w, build: time.Since(t0)}
	for _, streams := range []int{128, 1024} {
		cfg := diskthru.DefaultConfig()
		cfg.Seed = seed
		cfg.Streams = streams
		g.cells = append(g.cells, systemArms(cfg, fmt.Sprintf("streams=%d", streams), hdcKB(fileScale))...)
	}
	return g, g.reference()
}

// reference replays the grid once before timing starts; its digests
// are what every timed pass must reproduce.
func (g *replayGrid) reference() error {
	for _, c := range g.cells {
		res, err := diskthru.Run(g.w, c.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		g.want = append(g.want, resultDigest(res))
	}
	return nil
}

var errNotBuilt = errors.New("workload build failed in the cold pass")

// synPoint is one synthetic workload of the syn-build grid.
type synPoint struct {
	fileKB int
	alpha  float64
}

// synGrid is the fig3/fig5-shaped construction sweep: every pass
// generates each synthetic workload afresh from the seed and replays
// it once under Segm, FOR and FOR+HDC. The warm repeat replays the
// workloads the cold pass built, so warm_sweep_s is replay alone.
type synGrid struct {
	seed   int64
	points []synPoint
	want   []uint64
}

func (g *synGrid) close() error       { return nil }
func (g *synGrid) expected() []uint64 { return g.want }

func (g *synGrid) arms() []cellSpec {
	base := diskthru.DefaultConfig()
	base.Streams = 128
	return []cellSpec{
		{"Segm", base},
		{"FOR", base.WithSystem(diskthru.FOR)},
		{"FOR+HDC", base.WithSystem(diskthru.FOR).WithHDC(2048)},
	}
}

func (g *synGrid) options(i int) diskthru.SyntheticOptions {
	pt := g.points[i]
	return diskthru.SyntheticOptions{
		Requests:  synRequests,
		FileKB:    pt.fileKB,
		ZipfAlpha: pt.alpha,
		// Never zero: zero selects the generator's default seed.
		Seed: g.seed*int64(len(g.points)) + int64(i) + 1,
	}
}

func (g *synGrid) label(i int, arm string) string {
	pt := g.points[i]
	return fmt.Sprintf("kb=%d/alpha=%g/%s", pt.fileKB, pt.alpha, arm)
}

func (g *synGrid) pass(tr *tracer) (passRun, error) {
	p := passRun{counts: map[string]uint64{}, layer: map[string]float64{}}
	arms := g.arms()
	built := make([]*diskthru.Workload, len(g.points))
	var agg replayAgg
	var buildTime time.Duration
	root := tr.start("pass", -1, "")
	m := startMeter()
	for i := range g.points {
		sp := tr.start("diskthru.SyntheticWorkload", root, g.label(i, "build"))
		t0 := time.Now()
		w, err := diskthru.SyntheticWorkload(g.options(i))
		buildTime += time.Since(t0)
		tr.end(sp)
		if err != nil {
			for _, a := range arms {
				p.outputs = append(p.outputs, output{label: g.label(i, a.label), cells: 1, err: err})
			}
			continue
		}
		built[i] = w
		for _, a := range arms {
			agg.run(&p, tr, root, w, cellSpec{label: g.label(i, a.label), cfg: a.cfg})
		}
	}
	m.stop(&p)
	tr.end(root)
	agg.finish(&p)
	p.layer["workload.build_ms"] = ms(buildTime)
	var ok []*diskthru.Workload
	for _, w := range built {
		if w != nil {
			ok = append(ok, w)
		}
	}
	addWorkloadShape(&p, ok...)

	// Warm repeat: the same cells over the already-built workloads.
	// Outputs are checked too, but timings and counts stay cold-only.
	warmRoot := tr.start("warm-pass", -1, "")
	t0 := time.Now()
	for i, w := range built {
		for _, a := range arms {
			label := g.label(i, a.label) + "/warm"
			if w == nil {
				p.outputs = append(p.outputs, output{label: label, cells: 1, err: errNotBuilt})
				continue
			}
			sp := tr.start("diskthru.Run", warmRoot, label)
			res, err := diskthru.Run(w, a.cfg)
			tr.end(sp)
			p.outputs = append(p.outputs, output{label: label, digest: resultDigest(res), cells: 1, err: err})
		}
	}
	p.warm = time.Since(t0)
	tr.end(warmRoot)
	return p, nil
}

// setupSynBuild lays out the grid: file sizes across the fig3 range and
// the fig5 skew extremes. The reference computation builds and replays
// every cell once; a pass's warm outputs must match its cold ones.
func setupSynBuild(seed int64, _ string) (workload, error) {
	g := &synGrid{seed: seed}
	for _, kb := range []int{4, 16, 64} {
		for _, alpha := range []float64{0.4, 1.0} {
			g.points = append(g.points, synPoint{kb, alpha})
		}
	}
	for i := range g.points {
		w, err := diskthru.SyntheticWorkload(g.options(i))
		if err != nil {
			return nil, err
		}
		for _, a := range g.arms() {
			res, err := diskthru.Run(w, a.cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", g.label(i, a.label), err)
			}
			g.want = append(g.want, resultDigest(res))
		}
	}
	g.want = append(g.want, g.want...) // the warm repeat
	return g, nil
}
