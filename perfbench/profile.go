package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (spans inside the program do not exist
// yet). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Cell   string `json:"cell,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced passes share the traced code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, cell string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Cell: cell})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose interval was observed elsewhere, such as a
// daemon job's submitted and finished times from its job view.
func (t *tracer) add(name string, parent int, cell string, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0)), Parent: parent, Cell: cell})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// layerPackages maps import paths to the layer names of the per-layer
// metrics. Every package not listed counts as cpu.other, so the shares
// add up to the whole profile.
var layerPackages = map[string]string{
	"diskthru/internal/sim":      "sim",
	"diskthru/internal/cache":    "cache",
	"diskthru/internal/intmap":   "intmap",
	"diskthru/internal/disk":     "disk",
	"diskthru/internal/sched":    "sched",
	"diskthru/internal/geom":     "geom",
	"diskthru/internal/bus":      "bus",
	"diskthru/internal/array":    "array",
	"diskthru/internal/host":     "host",
	"diskthru/internal/workload": "workload",
	"diskthru/internal/fslayout": "fslayout",
	"diskthru/internal/dist":     "dist",
	"diskthru/internal/serve":    "serve",
	"diskthru/internal/journal":  "journal",
	"diskthru/internal/fleet":    "fleet",
	"internal/poll":              "net",
}

// cpuLayers is every cpu.<layer> metric, in report order.
var cpuLayers = []string{
	"sim", "cache", "intmap", "disk", "sched", "geom", "bus", "array", "host",
	"workload", "fslayout", "dist", "serve", "journal", "fleet", "net", "runtime", "other",
}

// layerOfPackage names the layer a package's self time belongs to.
func layerOfPackage(pkg string) string {
	if l, ok := layerPackages[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "diskthru/internal/sim.(*Simulator).Run". Type arguments of generic
// symbols are cut first, since they may hold slashes and dots.
func packageOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profileShares is the CPU profile of a run's traced passes, reduced to
// per-layer self-time shares and the cumulative time of the two
// construction steps nested inside diskthru.Run.
type profileShares struct {
	total   time.Duration
	self    map[string]time.Duration // by layer
	planHDC time.Duration            // samples with host.PlanHDC on the stack
	bitmaps time.Duration            // samples with fslayout.BuildBitmaps on the stack
	ctors   time.Duration            // samples inside a diskthru.*Workload constructor
}

func (p *profileShares) share(layer string) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	return float64(p.self[layer]) / float64(p.total)
}

// startProfile starts the CPU profiler; the returned stop function ends
// it and aggregates the samples with the installed `go tool pprof`.
func startProfile(dir, workload string, seed int64) (func() (*profileShares, error), error) {
	path := filepath.Join(dir, fmt.Sprintf("cpu-%s-seed%d.pprof", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (*profileShares, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		return aggregateProfile(path)
	}, nil
}

// goTool finds the go command of the toolchain that built this binary.
func goTool() string {
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		return "go"
	}
	return p
}

// aggregateProfile reads every sample stack from `go tool pprof
// -traces` and attributes each sample's self time to the package of its
// leaf frame.
func aggregateProfile(path string) (*profileShares, error) {
	cmd := exec.Command(goTool(), "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces parses pprof's -traces listing: blocks separated by
// "-----------+---" rules, each opening with the sample value and the
// leaf frame, then one caller frame per line, any "(inline)" marker
// after the name.
func parseTraces(out []byte) (*profileShares, error) {
	p := &profileShares{self: map[string]time.Duration{}}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		p.total += value
		p.self[layerOfPackage(packageOf(stack[0]))] += value
		var plan, bitmap, ctor bool
		for _, fn := range stack {
			switch {
			case fn == "diskthru/internal/host.PlanHDC":
				plan = true
			case fn == "diskthru/internal/fslayout.BuildBitmaps":
				bitmap = true
			case strings.HasPrefix(fn, "diskthru.") && strings.HasSuffix(fn, "Workload") && !strings.Contains(fn, "("):
				ctor = true
			}
		}
		if plan {
			p.planHDC += value
		}
		if bitmap {
			p.bitmaps += value
		}
		if ctor {
			p.ctors += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		fields := strings.Fields(line)
		if !inBody || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}
