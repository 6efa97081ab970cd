package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"diskthru"
	"diskthru/internal/metrics"
)

// --- /metrics: Prometheus default, legacy opt-in ---------------------

// TestMetricsLegacyFormatPinned pins the pre-registry names and shape:
// scrapers that learned the old listing keep working by adding
// ?format=legacy. This test is the compatibility contract — if it
// breaks, someone changed Metrics() instead of the registry.
func TestMetricsLegacyFormatPinned(t *testing.T) {
	run, release := blockingRunner(nil)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	h.submit(Spec{Experiment: "fig1"})
	release()
	for _, v := range h.srv.List() {
		h.await(v.ID, 10*time.Second, terminal)
	}

	status, hdr, raw := h.request("GET", "/metrics?format=legacy", nil)
	if status != http.StatusOK {
		t.Fatalf("legacy metrics: status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("legacy metrics content type %q", ct)
	}
	body := string(raw)
	if body != h.srv.Metrics() {
		t.Errorf("HTTP legacy output differs from Metrics()")
	}
	for _, want := range []string{
		"diskthru_jobs_submitted_total 1",
		`diskthru_jobs_rejected_total{reason="queue_full"} 0`,
		`diskthru_jobs_rejected_total{reason="draining"} 0`,
		`diskthru_jobs_total{state="done"} 1`,
		`diskthru_jobs_total{state="failed"} 0`,
		`diskthru_jobs_total{state="canceled"} 0`,
		"diskthru_jobs_running 0",
		"diskthru_queue_depth 0",
		"diskthru_queue_capacity 4",
		"diskthru_draining 0",
		`diskthru_job_seconds{experiment="fig1",stat="count"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("legacy metrics missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, "# HELP") {
		t.Errorf("legacy format grew Prometheus metadata:\n%s", body)
	}
}

// TestMetricsPrometheusFamilies checks the default /metrics output is
// well-formed exposition text carrying the expected families.
func TestMetricsPrometheusFamilies(t *testing.T) {
	run, release := blockingRunner(nil)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	h.submit(Spec{Experiment: "fig1"})
	release()
	for _, v := range h.srv.List() {
		h.await(v.ID, 10*time.Second, terminal)
	}

	status, _, raw := h.request("GET", "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	fams, err := metrics.Parse(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("default /metrics does not parse: %v\n%s", err, raw)
	}
	byName := map[string]metrics.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for name, typ := range map[string]string{
		"diskthru_jobs_submitted_total":          "counter",
		"diskthru_jobs_rejected_total":           "counter",
		"diskthru_jobs_finished_total":           "counter",
		"diskthru_jobs_running":                  "gauge",
		"diskthru_queue_depth":                   "gauge",
		"diskthru_queue_capacity":                "gauge",
		"diskthru_workers":                       "gauge",
		"diskthru_draining":                      "gauge",
		"diskthru_job_duration_seconds":          "histogram",
		"diskthru_queue_wait_seconds":            "histogram",
		"diskthru_worker_busy_seconds_total":     "counter",
		"diskthru_progress_streams_active":       "gauge",
		"diskthru_http_requests_total":           "counter",
		"diskthru_http_request_duration_seconds": "histogram",
		"diskthru_build_info":                    "gauge",
	} {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, f.Type, typ)
		}
	}
}

// findSample returns the value of the sample with the given name whose
// labels include all of want.
func findSample(t *testing.T, fams []metrics.Family, name string, want map[string]string) float64 {
	t.Helper()
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range want {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	t.Fatalf("no sample %s%v", name, want)
	return 0
}

// TestMetricsLint scrapes the live test server through HTTP, runs the
// exposition parser and linter over the body, and requires counters to
// be monotone across scrapes. This is the test `make metrics-lint`
// runs: it catches malformed escaping, broken histogram invariants and
// naming violations in everything the daemon exports.
func TestMetricsLint(t *testing.T) {
	run, release := blockingRunner(nil)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	h.submit(Spec{Experiment: "fig1"})
	h.submit(Spec{Experiment: "fig2"})
	release()
	for _, v := range h.srv.List() {
		h.await(v.ID, 10*time.Second, terminal)
	}

	scrape := func() []metrics.Family {
		t.Helper()
		status, _, raw := h.request("GET", "/metrics", nil)
		if status != http.StatusOK {
			t.Fatalf("metrics: status %d", status)
		}
		fams, err := metrics.Parse(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, raw)
		}
		for _, lintErr := range metrics.Lint(fams) {
			t.Errorf("lint: %v", lintErr)
		}
		return fams
	}
	// The request-count increment lands after the handler returns, so a
	// scrape never sees itself; warm up with one so both measured
	// scrapes carry the /metrics route.
	scrape()
	first := scrape()
	second := scrape()

	if n := findSample(t, first, "diskthru_jobs_submitted_total", nil); n != 2 {
		t.Errorf("submitted_total %v, want 2", n)
	}
	if n := findSample(t, first, "diskthru_job_duration_seconds_count",
		map[string]string{"experiment": "fig1"}); n != 1 {
		t.Errorf("job_duration count{fig1} %v, want 1", n)
	}
	// The scrape itself is traffic: request counters must be monotone.
	a := findSample(t, first, "diskthru_http_requests_total",
		map[string]string{"route": "/metrics", "code": "200"})
	b := findSample(t, second, "diskthru_http_requests_total",
		map[string]string{"route": "/metrics", "code": "200"})
	if b <= a {
		t.Errorf("http_requests_total{/metrics} not monotone: %v then %v", a, b)
	}
	if findSample(t, second, "diskthru_build_info", map[string]string{"model": diskthru.ModelDigest()}) != 1 {
		t.Errorf("build_info != 1")
	}
}

// --- live progress: polling and streaming ----------------------------

// TestProgressMonotonicWithETA is the end-to-end acceptance test: a
// real replay (table2 quick) is polled while it runs, and successive
// views must show non-decreasing percent and event counts, with a
// finite non-negative ETA once any fraction is known; the terminal view
// reports 100% and ETA 0.
func TestProgressMonotonicWithETA(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 2, Workers: 1})
	v := h.submit(Spec{Experiment: "table2", Quick: true, Parallelism: 1})
	if v.Progress != nil {
		t.Errorf("queued job already carries progress: %+v", v.Progress)
	}

	var lastPercent float64
	var lastEvents uint64
	sawRunningProgress := false
	sawFiniteETA := false
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v = h.get(v.ID)
		if p := v.Progress; p != nil {
			if p.Percent < lastPercent {
				t.Fatalf("percent went backwards: %v after %v", p.Percent, lastPercent)
			}
			if p.Events < lastEvents {
				t.Fatalf("events went backwards: %d after %d", p.Events, lastEvents)
			}
			lastPercent, lastEvents = p.Percent, p.Events
			if v.State == StateRunning {
				sawRunningProgress = true
				if p.Percent > 0 && p.ETASeconds >= 0 {
					sawFiniteETA = true
				}
				if p.Percent > 0 && p.ETASeconds < 0 {
					t.Fatalf("fraction known (%v%%) but ETA unknown", p.Percent)
				}
			}
		}
		if v.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if !sawRunningProgress {
		t.Error("never observed progress on a running view")
	}
	if !sawFiniteETA {
		t.Error("never observed a finite ETA while running")
	}
	p := v.Progress
	if p == nil {
		t.Fatal("terminal view carries no progress")
	}
	if p.Percent != 100 || p.ETASeconds != 0 {
		t.Errorf("terminal progress %v%% eta %v, want 100%% eta 0", p.Percent, p.ETASeconds)
	}
	if p.CellsDone != p.CellsTotal || p.CellsTotal == 0 {
		t.Errorf("terminal cells %d/%d", p.CellsDone, p.CellsTotal)
	}
	if p.Events == 0 || p.SimSeconds <= 0 {
		t.Errorf("terminal events %d sim %vs", p.Events, p.SimSeconds)
	}
}

// openStream starts a progress stream and returns the response; the
// caller owns resp.Body.
func (h *harness) openStream(id string) *http.Response {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + id + "/progress")
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		h.t.Fatalf("stream: status %d", resp.StatusCode)
	}
	return resp
}

// awaitStreamsIdle polls the active-streams gauge to zero, proving the
// server side of every stream exited.
func (h *harness) awaitStreamsIdle() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.streams.Value() != 0 {
		if time.Now().After(deadline) {
			h.t.Fatalf("%v progress streams still active", h.srv.streams.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProgressStreamToCompletion consumes a whole stream of a real job:
// every line is a View without a result, percent is monotone, and the
// last line is terminal.
func TestProgressStreamToCompletion(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 2, Workers: 1})
	v := h.submit(Spec{Experiment: "fig1", Quick: true, Parallelism: 1})
	resp := h.openStream(v.ID)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}

	var last View
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastPercent float64
	for sc.Scan() {
		var sv View
		if err := json.Unmarshal(sc.Bytes(), &sv); err != nil {
			t.Fatalf("line %d is not a View: %v: %s", lines, err, sc.Text())
		}
		if sv.Result != "" {
			t.Fatalf("stream line carries a result (fetch it from GET /v1/jobs/{id})")
		}
		if p := sv.Progress; p != nil {
			if p.Percent < lastPercent {
				t.Fatalf("streamed percent went backwards: %v after %v", p.Percent, lastPercent)
			}
			lastPercent = p.Percent
		}
		last = sv
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
	if !last.State.terminal() {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != StateDone {
		t.Fatalf("job ended %s: %s", last.State, last.Error)
	}
	h.awaitStreamsIdle()
	if status, _, _ := h.request("GET", "/v1/jobs/zzz/progress", nil); status != http.StatusNotFound {
		t.Errorf("stream of unknown job: status %d, want 404", status)
	}
}

// TestProgressStreamClientDisconnect opens a stream over a parked job,
// reads one line, and drops the connection; the server handler must
// notice and exit (gauge back to zero) while the job itself keeps
// running unharmed.
func TestProgressStreamClientDisconnect(t *testing.T) {
	started := make(chan string, 1)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 2, Workers: 1, Runner: run})
	defer release()
	v := h.submit(Spec{Experiment: "fig1"})
	<-started

	resp := h.openStream(v.ID)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	resp.Body.Close() // client walks away mid-stream
	h.awaitStreamsIdle()

	if got := h.get(v.ID); got.State != StateRunning {
		t.Fatalf("job state %s after watcher left, want running", got.State)
	}
	release()
	h.await(v.ID, 10*time.Second, terminal)
}

// TestProgressStreamSeesCancellation attaches a watcher, cancels the
// job under it, and requires the stream to deliver the canceled state
// and then end.
func TestProgressStreamSeesCancellation(t *testing.T) {
	started := make(chan string, 1)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 2, Workers: 1, Runner: run})
	defer release()
	v := h.submit(Spec{Experiment: "fig1"})
	<-started

	resp := h.openStream(v.ID)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	if status, _, _ := h.request("DELETE", "/v1/jobs/"+v.ID, nil); status != http.StatusAccepted {
		t.Fatalf("cancel: status %d", status)
	}
	var last View
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if last.State != StateCanceled {
		t.Fatalf("stream's final state %s, want canceled", last.State)
	}
	h.awaitStreamsIdle()
}

// TestDrainWithOpenStreams forces a drain while watchers are attached:
// the cancelled jobs reach their terminal state, every stream delivers
// it and closes, and Drain returns. Run under -race this also proves
// the stream path and the drain path share no unsynchronized state.
func TestDrainWithOpenStreams(t *testing.T) {
	started := make(chan string, 2)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	defer release()
	running := h.submit(Spec{Experiment: "fig1"})
	queued := h.submit(Spec{Experiment: "fig2"})
	<-started

	finals := make(chan State, 2)
	for _, id := range []string{running.ID, queued.ID} {
		resp := h.openStream(id)
		go func() {
			defer resp.Body.Close()
			var last View
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					t.Error(err)
					break
				}
			}
			finals <- last.State
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case st := <-finals:
			if st != StateCanceled {
				t.Errorf("stream %d ended on %s, want canceled", i, st)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not close after drain")
		}
	}
	h.awaitStreamsIdle()
}
