// Command perfbench is the repository benchmark. It replays fixed
// traces through the simulated disk array and, on fleet-sweep, through
// two in-process job daemons and a fleet coordinator. Every loop is
// closed: replay cells run one after another, and the fleet keeps at
// most one job in flight per daemon. It checks every output against a
// reference and prints each metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end host-time metrics; with
// -trace 1 they are the per-layer metrics of a separate traced run. See
// README.md for the workloads and the layer-to-metric map.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload web-replay --seed 1 --seconds 15 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// spec names one workload and how to set it up. dir is a private
// scratch directory for the run (daemon state dirs). threads is how
// many CPUs the workload keeps busy at once, and so how many kernels a
// calibration block runs at once.
type spec struct {
	name    string
	setup   func(seed int64, dir string) (workload, error)
	threads int
}

var specs = []spec{
	{"web-replay", setupWebReplay, 1},
	{"file-rw", setupFileRW, 1},
	{"syn-build", setupSynBuild, 1},
	{"fleet-sweep", setupFleetSweep, fleetDaemons},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// defaultSeed is the seed the committed reference digests belong to.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// referenceFor returns the committed combined digest of a workload's
// outputs, which only the default seed has.
func referenceFor(name string, seed int64) (uint64, bool) {
	if seed != defaultSeed {
		return 0, false
	}
	var refs map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return 0, false
	}
	v, err := strconv.ParseUint(refs[name], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit, note string }

// endToEnd are the metrics of an untraced run, all host-side. Times
// and rates are in reference seconds: measured, then scaled by the
// host's speed around each set-up or pass (speed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "host; median of the setup repeats: workload builds, daemon boot, reference computation"},
	{"sweep_s", "s", "host; median wall time of one cold pass over the cell grid"},
	{"warm_sweep_s", "s", "host; median wall time of the repeat pass over already-built inputs and warm caches"},
	{"cell_p50_ms", "ms", "host; median over passes of the pass's median cell: one diskthru.Run call, or one daemon job submitted to finished"},
	{"cell_tail_ms", "ms", "host; 95th percentile of all timed cells"},
	{"events_per_s", "1/s", "host; median over passes of simulated events fired per second spent in cells"},
	{"cpu_s", "s", "host; median process user+sys CPU per cold pass, scaled by the CPU-time speed"},
	{"alloc_mb", "MB", "host; median bytes allocated per cold pass"},
	{"peak_rss_mb", "MB", "host; process max RSS"},
}

// perLayer are the metrics of a traced run. cpu.<layer> is the layer's
// share of self CPU in the profile; the shares add up to 1. Host times
// here are raw wall time; bench.host_speed converts them to the
// reference seconds of the end-to-end metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "exact; events fired per cold pass"},
		{"sim.ns_per_event", "ns", "host ns in cells per event, median over the untraced passes"},
		{"sim.virtual_s", "s", "simulated seconds per pass"},
		{"cache.hit_rate", "ratio", "simulated; mean controller-cache hit rate over cells"},
		{"cache.hdc_hit_rate", "ratio", "simulated; mean pinned-region hit rate over HDC cells"},
		{"disk.requests", "count", "exact; per-disk requests per cold pass"},
		{"disk.media_ops", "count", "exact; media operations per cold pass"},
		{"disk.media_blocks", "count", "exact; blocks moved at the platters per cold pass"},
		{"disk.ra_waste", "ratio", "simulated; media blocks nobody requested over media blocks"},
		{"disk.busy_s", "s", "simulated disk busy seconds per pass"},
		{"bus.busy_s", "s", "simulated bus busy seconds per pass"},
		{"host.plan_ms", "ms", "host; profiled time under host.PlanHDC per pass"},
		{"workload.build_ms", "ms", "host; one build of the workload's traces (profiled on fleet-sweep)"},
		{"workload.records", "count", "records of the traces built by the benchmark"},
		{"workload.files", "count", "files of those traces"},
		{"workload.mem_mb", "MB", "estimated resident size of those traces"},
		{"fslayout.bitmap_ms", "ms", "host; profiled time under fslayout.BuildBitmaps per pass"},
		{"serve.queue_wait_ms", "ms", "host; median cold job submitted to started"},
		{"serve.job_ms", "ms", "host; median cold job started to finished"},
		{"serve.cache_hit_ratio", "ratio", "payload-cache hits over lookups, cold plus warm sweep"},
		{"serve.cells_simulated", "count", "exact; cells the daemons simulated in the cold sweep"},
		{"serve.cells_injected", "count", "exact; earlier-phase cells injected in the cold sweep"},
		{"journal.appends", "count", "exact; daemon journal appends in the cold sweep"},
		{"journal.fsyncs", "count", "daemon journal fsyncs in the cold sweep"},
		{"journal.bytes", "bytes", "daemon journal size after the cold sweep"},
		{"fleet.dispatched", "count", "cold cells the daemons accepted"},
		{"fleet.stolen", "count", "cold cells run away from their home daemon"},
		{"fleet.requeued", "count", "cold dispatches abandoned and retried"},
		{"fleet.overhead_s", "s", "host; cold sweep wall minus mean daemon busy time"},
		{"trace.overhead_s", "s", "host; traced minus untraced median sweep_s"},
		{"bench.host_speed", "ratio", "host's wall-time speed against the reference host, over the untraced part of the run"},
		{"bench.raw_sweep_s", "s", "host; median wall time of one cold pass, unscaled"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "ratio", "share of self CPU in the traced passes"})
	}
	return defs
}()

func main() {
	workload := flag.String("workload", "", "web-replay, file-rw, syn-build or fleet-sweep")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "seconds of timed passes")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for results, spans and profiles")
	flag.Parse()
	sp, ok := lookup(*workload)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload web-replay|file-rw|syn-build|fleet-sweep --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if err := run(sp, *seed, *seconds, *traceFlag == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(sp spec, seed int64, seconds int, traced bool, out string) error {
	// At most one Go thread per CPU the process may use.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		sp.name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := measure(sp, runOpts{
		seed: seed, budget: time.Duration(seconds) * time.Second,
		traced: traced, dir: scratch, keep: out,
	})
	if err != nil {
		return err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", sp.name, seed, btoi(traced)))
	var values map[string]float64
	var defs []metricDef
	if traced {
		values, defs = layerMetrics(res), perLayer
		if err := res.spans.write(base + "-spans.jsonl"); err != nil {
			return err
		}
	} else {
		values, defs = endToEndMetrics(res), endToEnd
	}

	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	passes := res.untraced
	cells := allCells(passes)
	fmt.Printf("passes: %d untraced, %d traced; cells timed: %d (cell_tail_ms is p%.0f, %d samples beyond it)\n",
		len(res.untraced), len(res.traced), len(cells), tailQuantile*100, int(float64(len(cells))*(1-tailQuantile)))
	wallSpeed, cpuSpeed := res.speed.speeds(0, len(res.speed.blocks))
	fmt.Printf("host speed: wall %.4f, cpu %.4f over %d calibration blocks; raw median sweep %.4f s, setup %.4f s\n",
		wallSpeed, cpuSpeed, len(res.speed.blocks),
		quantile(secondsOf(sweeps(passes)), 0.5), quantile(secondsOf(res.setup), 0.5))
	for _, d := range defs {
		fmt.Printf("%-24s %14.6g %-6s # %s\n", d.name, values[d.name], d.unit, d.note)
	}
	fmt.Printf("%-24s %14.6g %-6s # cells failed or differing from the reference, over cells attempted (%d/%d)\n",
		"failed_frac", failedFrac, "ratio", res.failed, res.attempted)
	counts := passes[0].counts
	for _, k := range exactCounts {
		fmt.Printf("count %-22s %d\n", k, counts[k])
	}
	fmt.Printf("checks: digest=%016x reference=%t counts_repeat=%t\n", res.digest, res.refOK, res.countsOK)

	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.refOK && res.countsOK, res.attempted, res.failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	record := map[string]any{
		"workload": sp.name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"failed_frac": failedFrac, "counts": counts, "result": result,
		"setup_s": secondsOf(res.setup), "sweep_s": secondsOf(sweeps(passes)),
		"setup_speed": res.setupSpd, "pass_speed": passSpeeds(passes),
	}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", blob, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sweeps(ps []passRun) []time.Duration {
	v := make([]time.Duration, len(ps))
	for i, p := range ps {
		v[i] = p.sweep
	}
	return v
}

func passSpeeds(ps []passRun) []float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = p.wallSpeed
	}
	return v
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func allCells(ps []passRun) []float64 {
	var v []float64
	for _, p := range ps {
		for _, c := range p.cellWall {
			v = append(v, ms(c))
		}
	}
	return v
}

// endToEndMetrics reduces the untraced passes to the reported values.
// Each pass's value is first scaled by the host's speed around it, so a
// slow host moves them little, then reduced by the median over passes,
// so a slow stretch of a run moves them little either. cell_p50_ms is
// the median of each pass's median cell rather than the median of all
// cells pooled: a grid splits into fast and slow arms (FOR and Segm on
// web-replay), and the pooled median of an even split falls between the
// slowest fast sample and the fastest slow one, two extremes.
func endToEndMetrics(r *runResult) map[string]float64 {
	ps := r.untraced
	var setup, cells []float64
	for i, d := range r.setup {
		setup = append(setup, d.Seconds()*r.setupSpd[i])
	}
	for _, p := range ps {
		for _, c := range p.cellWall {
			cells = append(cells, ms(c)*p.wallSpeed)
		}
	}
	return map[string]float64{
		"setup_s":      quantile(setup, 0.5),
		"sweep_s":      medianOf(ps, func(p passRun) float64 { return p.sweep.Seconds() * p.wallSpeed }),
		"warm_sweep_s": medianOf(ps, func(p passRun) float64 { return p.warm.Seconds() * p.wallSpeed }),
		"cell_p50_ms":  medianOf(ps, func(p passRun) float64 { return quantile(allCells([]passRun{p}), 0.5) * p.wallSpeed }),
		"cell_tail_ms": quantile(cells, tailQuantile),
		"events_per_s": medianOf(ps, func(p passRun) float64 { return float64(p.cellEvents) / p.cellHost.Seconds() / p.wallSpeed }),
		"cpu_s":        medianOf(ps, func(p passRun) float64 { return p.cpu.Seconds() * p.cpuSpeed }),
		"alloc_mb":     medianOf(ps, func(p passRun) float64 { return float64(p.allocBytes) / (1 << 20) }),
		"peak_rss_mb":  peakRSSBytes() / (1 << 20),
	}
}

// layerMetrics reduces the traced run to the per-layer values.
func layerMetrics(r *runResult) map[string]float64 {
	v := map[string]float64{}
	traced := r.traced
	for k := range traced[0].layer {
		v[k] = medianOf(traced, func(p passRun) float64 { return p.layer[k] })
	}
	for _, k := range exactCounts {
		v[k] = float64(traced[0].counts[k])
	}
	v["sim.ns_per_event"] = medianOf(r.untraced, func(p passRun) float64 {
		return float64(p.cellHost.Nanoseconds()) / float64(p.cellEvents)
	})
	sweep := func(p passRun) float64 { return p.sweep.Seconds() }
	v["trace.overhead_s"] = medianOf(traced, sweep) - medianOf(r.untraced, sweep)
	v["bench.host_speed"], _ = r.speed.speeds(0, len(r.speed.blocks))
	v["bench.raw_sweep_s"] = medianOf(r.untraced, sweep)
	if prof := r.profile; prof != nil {
		n := float64(len(traced))
		for _, l := range cpuLayers {
			v["cpu."+l] = prof.share(l)
		}
		v["host.plan_ms"] = ms(prof.planHDC) / n
		v["fslayout.bitmap_ms"] = ms(prof.bitmaps) / n
		if _, ok := v["workload.build_ms"]; !ok {
			v["workload.build_ms"] = ms(prof.ctors) / n
		}
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0
		}
	}
	return v
}
