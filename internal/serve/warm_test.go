package serve

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// tinyCellSpec is a cell job at the smallest scale the experiments
// tests use, so real-runner tests stay fast.
func tinyCellSpec(name string, cell experiments.CellID) Spec {
	return Spec{
		Experiment: name, Quick: true, Parallelism: 1, Cell: &cell,
		SynRequests: 1200, WebScale: 0.012, ProxyScale: 0.012, FileScale: 0.0015,
	}
}

// tinyCellPayload computes the same cell in-process — the byte-identity
// reference for every warm path.
func tinyCellPayload(t *testing.T, sp Spec) []byte {
	t.Helper()
	payload, err := experiments.RunCell(sp.Experiment, sp.options(), *sp.Cell)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func decodeResult(t *testing.T, v View) []byte {
	t.Helper()
	got, err := base64.StdEncoding.DecodeString(v.Result)
	if err != nil {
		t.Fatalf("cell result is not base64: %v", err)
	}
	return got
}

// TestPayloadCacheServesResubmission: the second submission of an
// identical cell spec is answered from the content-addressed payload
// cache — same bytes, one hit on the metrics surface, no second
// simulation.
func TestPayloadCacheServesResubmission(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	sp := tinyCellSpec("degraded", experiments.CellID{Phase: 0, Index: 0})
	v1 := h.await(h.submit(sp).ID, time.Minute, terminal)
	if v1.State != StateDone {
		t.Fatalf("first cell job ended %s: %s", v1.State, v1.Error)
	}
	v2 := h.await(h.submit(sp).ID, time.Minute, terminal)
	if v2.State != StateDone {
		t.Fatalf("second cell job ended %s: %s", v2.State, v2.Error)
	}
	if v1.Result != v2.Result {
		t.Error("cached resubmission returned different bytes")
	}
	if hits := h.srv.cache.hits[kindIdx(kindPayload)].Load(); hits != 1 {
		t.Errorf("payload cache hits = %d, want 1", hits)
	}
	if got := string(decodeResult(t, v2)); got != string(tinyCellPayload(t, sp)) {
		t.Error("cached payload differs from in-process RunCell")
	}
	out := scrape(t, h.srv)
	if !strings.Contains(out, `serve_cache_hits_total{kind="payload"} 1`) {
		t.Error("serve_cache_hits_total{kind=\"payload\"} not scraped as 1")
	}
}

// TestPhaseInjectionOverAPI: a later-phase cell job carrying the
// earlier phase's payloads must inject all of them (zero re-simulated)
// and still return exactly the bytes a cold local run produces.
func TestPhaseInjectionOverAPI(t *testing.T) {
	target := experiments.CellID{Phase: 1, Index: 0}
	sp := tinyCellSpec("degraded", target)
	o := sp.options()
	for i := 0; i < 3; i++ {
		cell := experiments.CellID{Phase: 0, Index: i}
		payload, err := experiments.RunCell("degraded", o, cell)
		if err != nil {
			t.Fatal(err)
		}
		sp.PhaseResults = append(sp.PhaseResults, CellPayload{Cell: cell, Payload: payload})
	}

	h := newHarness(t, Config{QueueCap: 4})
	v := h.await(h.submit(sp).ID, time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("warm cell job ended %s: %s", v.State, v.Error)
	}
	if n := h.srv.phaseResimulated.Load(); n != 0 {
		t.Errorf("%d earlier-phase cells re-simulated despite injected payloads", n)
	}
	if n := h.srv.phaseInjected.Load(); n != 3 {
		t.Errorf("phase cells injected = %d, want 3", n)
	}
	cold := sp
	cold.PhaseResults = nil
	if got := string(decodeResult(t, v)); got != string(tinyCellPayload(t, cold)) {
		t.Error("injected-phase result differs from cold local run")
	}

	// The benchmark baseline switch forces the replay path even with
	// payloads attached.
	h2 := newHarness(t, Config{QueueCap: 4, DisablePhaseInjection: true})
	v2 := h2.await(h2.submit(sp).ID, time.Minute, terminal)
	if v2.State != StateDone {
		t.Fatalf("replay-mode cell job ended %s: %s", v2.State, v2.Error)
	}
	if n := h2.srv.phaseInjected.Load(); n != 0 {
		t.Errorf("DisablePhaseInjection still injected %d cells", n)
	}
	if n := h2.srv.phaseResimulated.Load(); n != 3 {
		t.Errorf("replay mode re-simulated %d cells, want 3", n)
	}
	if v2.Result != v.Result {
		t.Error("replayed and injected results differ")
	}
}

// TestPhaseResultsValidation: malformed phase_results are rejected at
// admission, not discovered mid-run.
func TestPhaseResultsValidation(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	for name, body := range map[string]map[string]any{
		"without cell": {
			"experiment":    "degraded",
			"phase_results": []map[string]any{{"cell": map[string]int{"phase": 0, "index": 0}, "payload": "eA=="}},
		},
		"same phase": {
			"experiment":    "degraded",
			"cell":          map[string]int{"phase": 1, "index": 0},
			"phase_results": []map[string]any{{"cell": map[string]int{"phase": 1, "index": 1}, "payload": "eA=="}},
		},
		"empty payload": {
			"experiment":    "degraded",
			"cell":          map[string]int{"phase": 1, "index": 0},
			"phase_results": []map[string]any{{"cell": map[string]int{"phase": 0, "index": 0}, "payload": ""}},
		},
	} {
		status, _, raw := h.request("POST", "/v1/jobs", body)
		if status != http.StatusBadRequest {
			t.Errorf("phase_results %s: status %d (%s), want 400", name, status, raw)
		}
	}
}

// TestListStateFilter: GET /v1/jobs?state= narrows the index to one
// lifecycle state and rejects unknown states.
func TestListStateFilter(t *testing.T) {
	run, _ := instantRunner()
	failing := func(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error) {
		if sp.Seed == 13 {
			return "", errors.New("boom")
		}
		return run(ctx, sp, prog, ck)
	}
	h := newHarness(t, Config{QueueCap: 8, Runner: failing})
	ok1 := h.submit(Spec{Experiment: "fig1"})
	bad := h.submit(Spec{Experiment: "fig2", Seed: 13})
	ok2 := h.submit(Spec{Experiment: "fig3"})
	h.await(ok1.ID, time.Minute, terminal)
	h.await(bad.ID, time.Minute, terminal)
	h.await(ok2.ID, time.Minute, terminal)

	var done []IndexEntry
	if status, _, raw := h.request("GET", "/v1/jobs?state=done", nil); status != http.StatusOK {
		t.Fatalf("state=done: status %d (%s)", status, raw)
	} else if err := json.Unmarshal(raw, &done); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0].ID != ok1.ID || done[1].ID != ok2.ID {
		t.Errorf("state=done returned %+v, want [%s %s]", done, ok1.ID, ok2.ID)
	}
	var failed []IndexEntry
	if _, _, raw := h.request("GET", "/v1/jobs?state=failed", nil); true {
		if err := json.Unmarshal(raw, &failed); err != nil {
			t.Fatal(err)
		}
	}
	if len(failed) != 1 || failed[0].ID != bad.ID {
		t.Errorf("state=failed returned %+v, want [%s]", failed, bad.ID)
	}
	// The filter applies before the limit: the newest done job, not
	// "the newest job if it happens to be done".
	var tail []IndexEntry
	if _, _, raw := h.request("GET", "/v1/jobs?state=done&limit=1", nil); true {
		if err := json.Unmarshal(raw, &tail); err != nil {
			t.Fatal(err)
		}
	}
	if len(tail) != 1 || tail[0].ID != ok2.ID {
		t.Errorf("state=done&limit=1 returned %+v, want [%s]", tail, ok2.ID)
	}
	if status, _, raw := h.request("GET", "/v1/jobs?state=exploded", nil); status != http.StatusBadRequest {
		t.Errorf("bad state: status %d (%s), want 400", status, raw)
	}
}

// legacySnapPayload is an intra-cell snapshot in the 41-byte wire
// format older daemons journaled under "snap" records: magic "DSNP",
// version 1, four little-endian uint64 fields (run fingerprint, events
// fired, clock bits, state digest) and a CRC32-C trailer.
func legacySnapPayload() []byte {
	b := make([]byte, 41)
	copy(b, "DSNP")
	b[4] = 1
	binary.LittleEndian.PutUint64(b[5:], 0x5eed)
	binary.LittleEndian.PutUint64(b[13:], 2000)
	binary.LittleEndian.PutUint64(b[21:], math.Float64bits(0.25))
	binary.LittleEndian.PutUint64(b[29:], 0xd1635)
	binary.LittleEndian.PutUint32(b[37:], crc32.Checksum(b[:37], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// TestLegacySnapRecordRecoversCold: a journal left by an older daemon —
// an unfinished cell job plus one mid-cell "snap" record — must still
// recover. The snap record is skipped as an unknown type, the job is
// resumed, and the cell re-runs from the start to a payload
// byte-identical to a cold run.
func TestLegacySnapRecordRecoversCold(t *testing.T) {
	sp := tinyCellSpec("degraded", experiments.CellID{Phase: 0, Index: 0})
	cid := *sp.Cell
	dir := t.TempDir()
	writeRecords(t, dir, []record{
		{Type: "submit", Job: "j000001", Spec: &sp, SubmittedAt: time.Now()},
		{Type: "start", Job: "j000001", At: time.Now()},
		{Type: "snap", Job: "j000001", Cell: &cid, Payload: legacySnapPayload()},
	})
	s, err := New(Config{QueueCap: 4, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s)
	v := awaitJob(t, s, "j000001", time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("recovered cell job ended %s: %s", v.State, v.Error)
	}
	if got := string(decodeResult(t, v)); got != string(tinyCellPayload(t, sp)) {
		t.Error("recovered payload differs from a cold run")
	}
	if out := scrape(t, s); !strings.Contains(out, `serve_jobs_recovered_total{disposition="resumed"} 1`) {
		t.Error(`serve_jobs_recovered_total{disposition="resumed"} is not 1`)
	}
}
