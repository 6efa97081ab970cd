package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/fleet"
	"diskthru/internal/metrics"
	"diskthru/internal/serve"
)

// fleetExperiments are swept on every fleet-sweep pass: table2 is the
// many-cell single-phase sweep, degraded the two-phase one whose fault
// cells receive the healthy phase's payloads by phase injection.
var fleetExperiments = []string{"table2", "degraded"}

// fleetDaemons is the daemon count; with Workers=1 each and the
// coordinator at Window=1, at most two cells are in flight, which is
// the machine's CPU count the benchmark is sized for.
const fleetDaemons = 2

// daemon is one in-process diskthrud: a journaled serve.Server behind a
// loopback HTTP listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
	dir string
}

func bootDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: 1, StateDir: dir})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// stop closes the listener, drains the workers and removes the state.
func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return fmt.Errorf("draining daemon: %w", err)
	}
	return os.RemoveAll(d.dir)
}

// fleetSweep runs each pass on a fresh pair of daemons, so the cold
// sweep finds empty caches and journals while Options.Seed stays the
// run's seed, and the reference tables computed in setup hold for
// every pass.
type fleetSweep struct {
	opts    experiments.Options
	dir     string
	want    []uint64
	daemons []*daemon
	boots   int
}

func (f *fleetSweep) expected() []uint64 { return f.want }

// setupFleetSweep computes the reference tables with the serial local
// runner and boots the first pair of daemons.
func setupFleetSweep(seed int64, dir string) (workload, error) {
	o := experiments.Quick()
	o.Seed = seed
	f := &fleetSweep{opts: o, dir: dir}
	ref := o
	ref.Parallelism = 1
	var digests []uint64
	for _, name := range fleetExperiments {
		t, err := experiments.Run(name, ref)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		digests = append(digests, tableDigest(t.String()))
	}
	f.want = append(digests, digests...) // the warm resubmission
	return f, f.boot()
}

func tableDigest(s string) uint64 {
	var d digest
	d.s(s)
	return d.sum()
}

func (f *fleetSweep) boot() error {
	f.boots++
	for i := 0; i < fleetDaemons; i++ {
		d, err := bootDaemon(filepath.Join(f.dir, fmt.Sprintf("state-%d-%d", f.boots, i)))
		if err != nil {
			return err
		}
		f.daemons = append(f.daemons, d)
	}
	return nil
}

func (f *fleetSweep) close() error {
	var first error
	for _, d := range f.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	f.daemons = nil
	return first
}

func (f *fleetSweep) endpoints() []string {
	var eps []string
	for _, d := range f.daemons {
		eps = append(eps, d.ts.URL)
	}
	return eps
}

// sweep runs every experiment through a fresh coordinator and records
// one output per table. It returns the coordinator's counters.
func (f *fleetSweep) sweep(p *passRun, tr *tracer, name string) (map[string]float64, error) {
	c, err := fleet.New(fleet.Config{Endpoints: f.endpoints(), Window: 1})
	if err != nil {
		return nil, err
	}
	root := tr.start(name, -1, "")
	for _, exp := range fleetExperiments {
		sp := tr.start("fleet.Coordinator.Run", root, exp)
		t, err := c.Run(context.Background(), exp, f.opts)
		tr.end(sp)
		out := output{label: name + "/" + exp, err: err}
		if err == nil {
			out.digest = tableDigest(t.String())
		}
		p.outputs = append(p.outputs, out)
	}
	tr.end(root)
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return sumSeries(buf.Bytes())
}

func (f *fleetSweep) pass(tr *tracer) (passRun, error) {
	p := passRun{counts: map[string]uint64{}, layer: map[string]float64{}}
	m := startMeter()
	coord, err := f.sweep(&p, tr, "cold-sweep")
	if err != nil {
		return p, err
	}
	m.stop(&p)
	cold, err := f.scrape()
	if err != nil {
		return p, err
	}
	coldJobs, err := f.jobs()
	if err != nil {
		return p, err
	}

	t0 := time.Now()
	if _, err := f.sweep(&p, tr, "warm-sweep"); err != nil {
		return p, err
	}
	p.warm = time.Since(t0)
	warm, err := f.scrape()
	if err != nil {
		return p, err
	}

	// Each table covers the cells its daemon jobs ran.
	perExp := map[string]int{}
	var queueWait, run []float64
	var busy float64
	for _, j := range coldJobs {
		perExp[j.Spec.Experiment]++
		if j.StartedAt == nil || j.FinishedAt == nil {
			continue
		}
		p.cellWall = append(p.cellWall, j.FinishedAt.Sub(j.SubmittedAt))
		runFor := j.FinishedAt.Sub(*j.StartedAt)
		p.cellHost += runFor
		busy += runFor.Seconds()
		queueWait = append(queueWait, ms(j.StartedAt.Sub(j.SubmittedAt)))
		run = append(run, ms(runFor))
		if j.Progress != nil {
			p.cellEvents += j.Progress.Events
			p.counts["sim.events"] += j.Progress.Events
			p.layer["sim.virtual_s"] += j.Progress.SimSeconds
		}
		tr.add("serve.job", -1, fmt.Sprintf("%s/%v", j.Spec.Experiment, j.Spec.Cell), j.SubmittedAt, *j.FinishedAt)
	}
	for i := range p.outputs {
		exp := fleetExperiments[i%len(fleetExperiments)]
		p.outputs[i].cells = perExp[exp]
	}
	if tr != nil {
		if err := f.traceWarmJobs(tr, coldJobs); err != nil {
			return p, err
		}
	}

	p.counts["journal.appends"] = uint64(cold["serve_journal_appends_total"])
	p.counts["serve.cells_simulated"] = uint64(cold[`serve_cache_misses_total{kind="payload"}`] + cold["serve_cells_phase_resimulated_total"])
	p.counts["serve.cells_injected"] = uint64(cold["serve_cells_phase_injected_total"])
	p.layer["journal.fsyncs"] = cold["serve_journal_fsyncs_total"]
	p.layer["journal.bytes"] = cold["serve_journal_bytes"]
	p.layer["serve.queue_wait_ms"] = quantile(queueWait, 0.5)
	p.layer["serve.job_ms"] = quantile(run, 0.5)
	hits := warm[`serve_cache_hits_total{kind="payload"}`]
	lookups := hits + warm[`serve_cache_misses_total{kind="payload"}`]
	if lookups > 0 {
		p.layer["serve.cache_hit_ratio"] = hits / lookups
	}
	p.layer["fleet.dispatched"] = coord["fleet_cells_dispatched_total"]
	p.layer["fleet.stolen"] = coord["fleet_cells_stolen_total"]
	p.layer["fleet.requeued"] = coord["fleet_cells_requeued_total"]
	p.layer["fleet.overhead_s"] = p.sweep.Seconds() - busy/fleetDaemons

	// The next pass gets fresh daemons; booting them is not timed.
	if err := f.close(); err != nil {
		return p, err
	}
	return p, f.boot()
}

// traceWarmJobs records a span for every job the warm sweep added.
func (f *fleetSweep) traceWarmJobs(tr *tracer, cold []jobView) error {
	all, err := f.jobs()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, j := range cold {
		seen[j.key] = true
	}
	for _, j := range all {
		if !seen[j.key] && j.StartedAt != nil && j.FinishedAt != nil {
			tr.add("serve.job", -1, fmt.Sprintf("warm/%s/%v", j.Spec.Experiment, j.Spec.Cell), j.SubmittedAt, *j.FinishedAt)
		}
	}
	return nil
}

// scrape sums every series of the daemons' /metrics, keyed by name and
// labels as exposed.
func (f *fleetSweep) scrape() (map[string]float64, error) {
	total := map[string]float64{}
	for _, d := range f.daemons {
		body, err := get(d.ts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := sumSeries(body)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// sumSeries parses a Prometheus exposition into name{labels} -> value.
func sumSeries(body []byte) (map[string]float64, error) {
	fams, err := metrics.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			key := s.Name
			if len(s.Labels) == 1 {
				for k, v := range s.Labels {
					key = fmt.Sprintf("%s{%s=%q}", s.Name, k, v)
				}
			}
			out[key] += s.Value
			if len(s.Labels) > 0 {
				out[s.Name] += s.Value // unlabeled total across label values
			}
		}
	}
	return out, nil
}

// jobView is one daemon job view; key is unique across daemons.
type jobView struct {
	serve.View
	key string
}

// jobs fetches every job view from both daemons, through the job index.
func (f *fleetSweep) jobs() ([]jobView, error) {
	var out []jobView
	for _, d := range f.daemons {
		body, err := get(d.ts.URL + "/v1/jobs")
		if err != nil {
			return nil, err
		}
		var idx []serve.IndexEntry
		if err := json.Unmarshal(body, &idx); err != nil {
			return nil, fmt.Errorf("job index: %w", err)
		}
		for _, e := range idx {
			body, err := get(d.ts.URL + "/v1/jobs/" + e.ID)
			if err != nil {
				return nil, err
			}
			var v serve.View
			if err := json.Unmarshal(body, &v); err != nil {
				return nil, fmt.Errorf("job %s: %w", e.ID, err)
			}
			out = append(out, jobView{View: v, key: d.ts.URL + "/" + v.ID})
		}
	}
	return out, nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
