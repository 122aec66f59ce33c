package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("empty context carries a trace")
	}
	tc := Trace{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if len(tc.TraceID) != 16 || len(tc.SpanID) != 8 {
		t.Fatalf("id lengths: trace %q span %q", tc.TraceID, tc.SpanID)
	}
	got, ok := TraceFrom(ContextWithTrace(ctx, tc))
	if !ok || got != tc {
		t.Fatalf("round trip %+v, want %+v", got, tc)
	}
}

func TestTracerJournalAndParenting(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b, "testproc")
	mono := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr.now = func() time.Time {
		mono = mono.Add(time.Millisecond)
		return mono
	}

	ctx, root := tr.Start(context.Background(), "lease", slog.String("worker", "w1"))
	_, child := tr.Start(ctx, "chunk")
	child.SetAttr(slog.Int("chunk", 3))
	child.End()
	root.End()

	recs, err := ReadJournal(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d spans, want 2:\n%s", len(recs), b.String())
	}
	// Spans end child-first.
	ch, rt := recs[0], recs[1]
	if ch.Name != "chunk" || rt.Name != "lease" {
		t.Fatalf("span order: %q then %q", ch.Name, rt.Name)
	}
	if ch.TraceID != rt.TraceID {
		t.Fatalf("child trace %s != root trace %s", ch.TraceID, rt.TraceID)
	}
	if ch.ParentID != rt.SpanID {
		t.Fatalf("child parent %s, want root span %s", ch.ParentID, rt.SpanID)
	}
	if ch.Attrs["chunk"] != float64(3) || rt.Attrs["worker"] != "w1" {
		t.Fatalf("attrs lost: child %v root %v", ch.Attrs, rt.Attrs)
	}
	if ch.Process != "testproc" {
		t.Fatalf("process %q", ch.Process)
	}
	if ch.DurUS <= 0 || rt.DurUS <= ch.DurUS {
		t.Fatalf("durations: child %d, root %d", ch.DurUS, rt.DurUS)
	}
}

func TestTracerJoinsPropagatedTrace(t *testing.T) {
	// A context that arrived with a trace (extracted from HTTP headers)
	// must be joined, not replaced.
	var b strings.Builder
	tr := NewTracer(&b, "server")
	in := Trace{TraceID: "deadbeefdeadbeef", SpanID: "12345678"}
	_, s := tr.Start(ContextWithTrace(context.Background(), in), "handle")
	s.End()
	recs, _ := ReadJournal(strings.NewReader(b.String()))
	if len(recs) != 1 || recs[0].TraceID != in.TraceID || recs[0].ParentID != in.SpanID {
		t.Fatalf("propagated trace not joined: %+v", recs)
	}
}

func TestNilTracerStillPropagates(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "op")
	defer s.End() // must not panic
	tc, ok := TraceFrom(ctx)
	if !ok || tc.TraceID == "" || tc.SpanID == "" {
		t.Fatalf("nil tracer produced no trace identity: %+v", tc)
	}
	if s.rec.TraceID != tc.TraceID {
		t.Fatalf("span trace %q, context trace %q", s.rec.TraceID, tc.TraceID)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var journal strings.Builder
	tr := NewTracer(&journal, "ffrwork")
	_, s := tr.Start(context.Background(), "chunk", slog.Int("chunk", 7))
	s.End()

	var chrome strings.Builder
	if err := ConvertChromeTrace(&chrome, strings.NewReader(journal.String())); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome.String()), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var meta, complete bool
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta = true
			if args := ev["args"].(map[string]any); args["name"] != "ffrwork" {
				t.Fatalf("process metadata %v", args)
			}
		case "X":
			complete = true
			if ev["name"] != "chunk" {
				t.Fatalf("event name %v", ev["name"])
			}
			if args := ev["args"].(map[string]any); args["chunk"] != float64(7) || args["trace_id"] == "" {
				t.Fatalf("event args %v", args)
			}
		}
	}
	if !meta || !complete {
		t.Fatalf("chrome trace missing events (meta %v, complete %v):\n%s", meta, complete, chrome.String())
	}
}

func TestReadJournalSkipsTruncatedLines(t *testing.T) {
	journal := `{"trace_id":"a","span_id":"b","name":"ok","start_us":1,"dur_us":1}` + "\n" +
		`{"trace_id":"c","span_id":` // truncated by a crash
	recs, err := ReadJournal(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "ok" {
		t.Fatalf("recs %+v", recs)
	}
}
