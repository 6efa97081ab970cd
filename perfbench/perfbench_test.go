package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// onePass sets a workload up at seed and runs one untraced pass.
func onePass(t *testing.T, sp spec, seed int64) (workload, passRun) {
	t.Helper()
	w, err := sp.setup(seed, t.TempDir())
	if err != nil {
		t.Fatalf("%s setup: %v", sp.name, err)
	}
	t.Cleanup(func() {
		if err := w.close(); err != nil {
			t.Errorf("%s close: %v", sp.name, err)
		}
	})
	p, err := w.pass(nil)
	if err != nil {
		t.Fatalf("%s pass: %v", sp.name, err)
	}
	return w, p
}

// TestExactCountsRepeat runs every workload twice at the default seed,
// as two separate set-ups: the work counters must repeat bit for bit,
// every output must match the reference computed in setup, and that
// reference must match the committed one.
func TestExactCountsRepeat(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w1, p1 := onePass(t, sp, defaultSeed)
			w2, p2 := onePass(t, sp, defaultSeed)
			for _, k := range exactCounts {
				if p1.counts[k] != p2.counts[k] {
					t.Errorf("%s: %d then %d", k, p1.counts[k], p2.counts[k])
				}
			}
			if p1.counts["sim.events"] == 0 {
				t.Error("sim.events is zero: the pass simulated nothing")
			}
			for _, run := range []struct {
				w workload
				p passRun
			}{{w1, p1}, {w2, p2}} {
				want := run.w.expected()
				if len(run.p.outputs) != len(want) {
					t.Fatalf("%d outputs, %d expected digests", len(run.p.outputs), len(want))
				}
				for i, out := range run.p.outputs {
					if out.err != nil || out.digest != want[i] || out.cells < 1 {
						t.Errorf("output %s: digest %016x err %v cells %d, want %016x",
							out.label, out.digest, out.err, out.cells, want[i])
					}
				}
			}
			ref, ok := referenceFor(sp.name, defaultSeed)
			if got := combine(w1.expected()); !ok || got != ref {
				t.Errorf("combined digest %016x, committed reference %016x (present %t)", got, ref, ok)
			}
		})
	}
}

// TestSeedReachesInputs checks that the seed argument changes what is
// simulated: two seeds must give different output digests.
func TestSeedReachesInputs(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, err := sp.setup(defaultSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer a.close()
			b, err := sp.setup(defaultSeed+1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if combine(a.expected()) == combine(b.expected()) {
				t.Errorf("seeds %d and %d give identical outputs", defaultSeed, defaultSeed+1)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json
// and the metrics this command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the command does not have", w.Name)
		}
	}
}

func TestParseTraces(t *testing.T) {
	listing := `File: perfbench
Type: cpu
Duration: 3.11s, Total samples = 60ms (1.93%)
-----------+-------------------------------------------------------
      10ms   diskthru/internal/intmap.(*Map[go.shape.int32]).Get (inline)
             diskthru/internal/fslayout.BuildBitmaps
             diskthru.RunContext
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             diskthru/internal/host.PlanHDC
             diskthru.RunContext
-----------+-------------------------------------------------------
      30ms   sort.Search (inline)
             diskthru/internal/dist.(*Zipf).Rank
             diskthru.WebWorkload
-----------+-------------------------------------------------------
`
	p, err := parseTraces([]byte(listing))
	if err != nil {
		t.Fatal(err)
	}
	ms10 := 10 * time.Millisecond
	if p.total != 6*ms10 || p.self["intmap"] != ms10 || p.self["runtime"] != 2*ms10 || p.self["other"] != 3*ms10 {
		t.Errorf("self times %v, total %v", p.self, p.total)
	}
	if p.bitmaps != ms10 || p.planHDC != 2*ms10 || p.ctors != 3*ms10 {
		t.Errorf("cumulative: bitmaps %v plan %v ctors %v", p.bitmaps, p.planHDC, p.ctors)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += p.share(l)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("shares add up to %v", sum)
	}
}

// TestSpeedometer checks the calibration arithmetic: the speed around
// a timed stretch comes from the two blocks that bracket it.
func TestSpeedometer(t *testing.T) {
	s := speedometer{blocks: []block{
		{ref: 2 * time.Second, wall: 1 * time.Second, cpu: 2 * time.Second, threads: 1},
		{ref: 2 * time.Second, wall: 3 * time.Second, cpu: 2 * time.Second, threads: 1},
		{ref: 2 * time.Second, wall: 4 * time.Second, cpu: 8 * time.Second, threads: 2},
	}}
	if wall, cpu := s.around(0); wall != 1 || cpu != 1 {
		t.Errorf("around(0) = %v, %v; want 1, 1", wall, cpu)
	}
	if wall, cpu := s.around(1); wall != 4.0/7 || cpu != 6.0/10 {
		t.Errorf("around(1) = %v, %v; want 4/7, 6/10", wall, cpu)
	}
	for _, threads := range []int{1, 2} {
		s = speedometer{threads: threads}
		s.sample()
		s.sample()
		if wall, cpu := s.around(0); !(wall > 0.01 && wall < 100 && cpu > 0.01 && cpu < 100) {
			t.Errorf("%d threads: measured speeds %v (wall), %v (cpu) are not plausible", threads, wall, cpu)
		}
	}
}
