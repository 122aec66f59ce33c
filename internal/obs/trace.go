package obs

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Trace identifies one logical operation (a prediction, a leased chunk) as
// it crosses processes. TraceID is shared by every span of the operation;
// SpanID is the identifier of the current span, which becomes the parent
// of any span started under this context.
type Trace struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the trace carries an ID.
func (t Trace) Valid() bool { return t.TraceID != "" }

// NewTraceID returns a fresh 16-hex-character trace identifier.
func NewTraceID() string { return randomHex(8) }

// NewSpanID returns a fresh 8-hex-character span identifier.
func NewSpanID() string { return randomHex(4) }

func randomHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the trace attached to a context; ok is false when the
// context carries none.
func TraceFrom(ctx context.Context) (Trace, bool) {
	t, ok := ctx.Value(traceCtxKey{}).(Trace)
	return t, ok && t.Valid()
}

// TraceIDFrom returns the trace ID carried by the context, or "" — the
// one-liner for stamping trace_id fields onto log records.
func TraceIDFrom(ctx context.Context) string {
	t, _ := TraceFrom(ctx)
	return t.TraceID
}

// SpanRecord is one completed span as written to a JSONL span journal.
type SpanRecord struct {
	TraceID  string         `json:"trace_id"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	Process  string         `json:"proc,omitempty"`
	StartUS  int64          `json:"start_us"` // Unix microseconds
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Tracer records completed spans as one JSON line each (a span journal).
// A nil *Tracer still starts spans — they carry real trace/span IDs for
// propagation and log correlation, they just aren't journaled — so
// components take one optionally and trace unguarded.
type Tracer struct {
	process string
	mu      sync.Mutex
	w       io.Writer
	now     func() time.Time // test hook; nil means time.Now
}

// NewTracer returns a tracer journaling to w, tagging every span with the
// given process name ("coord", "work", ...).
func NewTracer(w io.Writer, process string) *Tracer {
	return &Tracer{process: process, w: w}
}

// Span is one in-flight timed operation; finish it with End. Spans are not
// safe for concurrent mutation (SetAttr), but distinct spans are
// independent.
type Span struct {
	tracer *Tracer
	rec    SpanRecord
	start  time.Time
}

// Start opens a span named name. The span joins the trace attached to ctx
// (becoming a child of its current span) or starts a new trace, and the
// returned context carries the updated trace for children and for HTTP
// propagation. End the span to journal it.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...slog.Attr) (context.Context, *Span) {
	tc, _ := TraceFrom(ctx)
	parent := tc.SpanID
	if !tc.Valid() {
		tc.TraceID = NewTraceID()
	}
	tc.SpanID = NewSpanID()

	now := time.Now
	if t != nil && t.now != nil {
		now = t.now
	}
	s := &Span{
		tracer: t,
		start:  now(),
		rec: SpanRecord{
			TraceID:  tc.TraceID,
			SpanID:   tc.SpanID,
			ParentID: parent,
			Name:     name,
		},
	}
	if t != nil {
		s.rec.Process = t.process
	}
	s.SetAttr(attrs...)
	return ContextWithTrace(ctx, tc), s
}

// SetAttr attaches attributes to the span.
func (s *Span) SetAttr(attrs ...slog.Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		s.rec.Attrs[a.Key] = a.Value.Any()
	}
}

// End closes the span and journals it (when the tracer has a journal).
func (s *Span) End() {
	if s == nil || s.tracer == nil || s.tracer.w == nil {
		return
	}
	t := s.tracer
	now := time.Now
	if t.now != nil {
		now = t.now
	}
	s.rec.StartUS = s.start.UnixMicro()
	s.rec.DurUS = now().Sub(s.start).Microseconds()
	line, err := json.Marshal(s.rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	t.w.Write(line)
	t.mu.Unlock()
}

// ReadJournal parses a JSONL span journal. Unparsable lines are skipped
// (a crashed process may truncate its last line).
func ReadJournal(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.TraceID != "" {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// chromeEvent is one Chrome trace-event ("X" = complete, "M" = metadata).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts,omitempty"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders span records in the Chrome trace-event JSON
// format, loadable in chrome://tracing and Perfetto. Each process becomes
// a trace-viewer process row (named via metadata events) and each trace ID
// a thread row, so one distributed operation reads as one lane.
func WriteChromeTrace(w io.Writer, records []SpanRecord) error {
	pids := make(map[string]int)
	tids := make(map[string]int)
	var events []chromeEvent
	for _, rec := range records {
		proc := rec.Process
		if proc == "" {
			proc = "unknown"
		}
		pid, ok := pids[proc]
		if !ok {
			pid = len(pids) + 1
			pids[proc] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": proc},
			})
		}
		tid, ok := tids[rec.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[rec.TraceID] = tid
		}
		args := map[string]any{"trace_id": rec.TraceID, "span_id": rec.SpanID}
		for k, v := range rec.Attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: rec.Name, Phase: "X", Cat: "ffr",
			TS: rec.StartUS, Dur: rec.DurUS,
			PID: pid, TID: tid, Args: args,
		})
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ConvertChromeTrace reads a JSONL span journal and writes the Chrome
// trace-event conversion.
func ConvertChromeTrace(dst io.Writer, src io.Reader) error {
	recs, err := ReadJournal(src)
	if err != nil {
		return fmt.Errorf("obs: reading span journal: %w", err)
	}
	return WriteChromeTrace(dst, recs)
}
