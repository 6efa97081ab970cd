package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
)

// syncBuffer is a log sink safe for the prober's concurrent writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// foreignModel wraps a real daemon so its /healthz reports health body
// instead of the daemon's own answer, and counts the job submissions
// that reach it.
func foreignModel(body string, submits *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body)) //nolint:errcheck
				return
			}
			if r.Method == http.MethodPost {
				submits.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestFleetModelMismatchGetsNoWork: daemons whose /healthz reports a
// different model digest, or none, are healthy in every other respect
// yet must receive zero submissions; the sweep still merges
// byte-identically on the one daemon that matches, and each mismatch is
// logged once however often it is probed.
func TestFleetModelMismatchGetsNoWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment sweep")
	}
	want, err := experiments.Run("faults", quick1())
	if err != nil {
		t.Fatal(err)
	}
	var otherHits, missingHits atomic.Int64
	endpoints := bootDaemons(t, 1, nil)
	endpoints = append(endpoints, bootDaemons(t, 1,
		foreignModel(`{"status":"ok","draining":false,"model":"0123456789abcdef"}`, &otherHits))...)
	endpoints = append(endpoints, bootDaemons(t, 1,
		foreignModel(`{"status":"ok","draining":false}`, &missingHits))...)

	var logs syncBuffer
	c, err := New(Config{
		Endpoints: endpoints, Window: 2, ProbeInterval: 5 * time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("fleet table differs from single-node run:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
	if n := otherHits.Load(); n != 0 {
		t.Errorf("daemon with another model digest received %d submissions", n)
	}
	if n := missingHits.Load(); n != 0 {
		t.Errorf("daemon without a model digest received %d submissions", n)
	}
	if c.completed.Value() == 0 {
		t.Error("no cells completed on the matching daemon")
	}
	out := logs.String()
	if n := strings.Count(out, "different simulator"); n != 2 {
		t.Errorf("mismatch logged %d times, want once per foreign daemon:\n%s", n, out)
	}
	if !strings.Contains(out, "daemon_model=0123456789abcdef") || !strings.Contains(out, "coordinator_model="+c.model) {
		t.Errorf("mismatch log does not name both digests:\n%s", out)
	}
}

// rewriteJournal replaces the sweep journal at path with its records
// passed through edit, in order.
func rewriteJournal(t *testing.T, path string, edit func(rec *sweepRecord)) {
	t.Helper()
	var recs []sweepRecord
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = journal.Replay(f, func(p []byte) error {
		var rec sweepRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, _, err := journal.Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range recs {
		edit(&recs[i])
		b, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

// journalSweep runs one faults sweep that journals into a fresh state
// dir and returns the journal's path.
func journalSweep(t *testing.T, endpoints []string) string {
	t.Helper()
	dir := t.TempDir()
	c, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), "faults", experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	if c.completed.Value() < 2 {
		t.Fatalf("faults accepted only %v remote cells", c.completed.Value())
	}
	return filepath.Join(dir, "fleet.journal")
}

// TestFleetResumeUndecodablePayload: a resumed sweep whose journal holds
// one payload that no longer decodes must re-dispatch that cell and
// merge the daemon's answer — not discard it as a duplicate and leave a
// zero cell in the table.
func TestFleetResumeUndecodablePayload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment three times")
	}
	want, err := experiments.Run("faults", quick1())
	if err != nil {
		t.Fatal(err)
	}
	endpoints := bootDaemons(t, 2, nil)
	path := journalSweep(t, endpoints)
	spoiled := false
	rewriteJournal(t, path, func(rec *sweepRecord) {
		if rec.Type == "cell" && !spoiled {
			rec.Payload = []byte("not a gob payload")
			spoiled = true
		}
	})

	c, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: filepath.Dir(path), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("resume with an undecodable payload diverged:\n--- single ---\n%s--- resumed ---\n%s", want, got)
	}
	if v := c.duplicates.Value(); v != 0 {
		t.Errorf("%v results discarded as duplicates, want 0", v)
	}
	if v := c.completed.Value(); v != 1 {
		t.Errorf("%v cells completed remotely, want exactly the spoiled one", v)
	}
}

// TestFleetResumeRefusesForeignModel: a sweep journal whose header names
// another simulator's model digest, or none (a journal from before the
// digest existed), must not be resumed.
func TestFleetResumeRefusesForeignModel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment sweep")
	}
	path := journalSweep(t, bootDaemons(t, 2, nil))
	for _, model := range []string{"0123456789abcdef", ""} {
		rewriteJournal(t, path, func(rec *sweepRecord) {
			if rec.Type == "sweep" {
				rec.Model = model
			}
		})
		c, err := New(Config{Endpoints: []string{"127.0.0.1:1"}, StateDir: filepath.Dir(path), Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(context.Background(), "faults", experiments.Quick())
		if err == nil || !strings.Contains(err.Error(), "different simulator") {
			t.Errorf("journal with model %q: resume not refused: %v", model, err)
		}
	}
}
