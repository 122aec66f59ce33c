package fabric_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log/journal sink.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
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

// jsonRecords parses one JSON object per line, skipping blanks.
func jsonRecords(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestCampaignTelemetryCorrelates is the observability acceptance gate: a
// distributed campaign with structured logging and span journals on both
// sides must let one leased chunk be followed by trace ID from the
// worker's log, through the coordinator's log, into both span journals.
func TestCampaignTelemetryCorrelates(t *testing.T) {
	var coordLog, workLog, coordSpans, workSpans syncBuffer

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:     testSpec(),
		LeaseTTL: 5 * time.Second,
		Logger:   slog.New(slog.NewJSONHandler(&coordLog, nil)),
		Tracer:   obs.NewTracer(&coordSpans, "ffrcoord"),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:        "w1",
		Coordinator: srv.URL,
		Workers:     1,
		Logger:      slog.New(slog.NewJSONHandler(&workLog, nil)),
		Tracer:      obs.NewTracer(&workSpans, "ffrwork"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Pick one leased chunk's trace from the worker's log and follow it.
	var cycleTrace string
	for _, rec := range jsonRecords(t, workLog.String()) {
		if rec["msg"] == "lease granted" {
			cycleTrace, _ = rec["trace_id"].(string)
			break
		}
	}
	if cycleTrace == "" {
		t.Fatalf("worker log has no lease grant with a trace_id:\n%s", workLog.String())
	}

	assertTrace := func(name, raw, msg string) {
		t.Helper()
		for _, rec := range jsonRecords(t, raw) {
			if rec["msg"] == msg && rec["trace_id"] == cycleTrace {
				return
			}
		}
		t.Fatalf("%s has no %q record under trace %s:\n%s", name, msg, cycleTrace, raw)
	}
	// Same trace in the coordinator's structured log (the lease grant and
	// the chunk completions of that cycle).
	assertTrace("coordinator log", coordLog.String(), "lease granted")
	assertTrace("coordinator log", coordLog.String(), "chunk completed")
	assertTrace("worker log", workLog.String(), "chunk completed")

	// Same trace in both span journals.
	for name, buf := range map[string]*syncBuffer{"ffrcoord": &coordSpans, "ffrwork": &workSpans} {
		recs, err := obs.ReadJournal(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range recs {
			if r.TraceID == cycleTrace {
				found = true
				if r.Process != name {
					t.Fatalf("span process %q in the %s journal", r.Process, name)
				}
			}
		}
		if !found {
			t.Fatalf("%s span journal has no span under trace %s", name, cycleTrace)
		}
	}

	// Worker name travels into coordinator spans as an attribute.
	recs, _ := obs.ReadJournal(strings.NewReader(coordSpans.String()))
	for _, r := range recs {
		if r.Name == "fabric.lease" && r.Attrs["worker"] == "w1" {
			return
		}
	}
	t.Fatalf("coordinator journal has no fabric.lease span for w1:\n%s", coordSpans.String())
}
