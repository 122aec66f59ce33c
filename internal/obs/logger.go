package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log records by severity. The zero value is LevelInfo, so a
// zero-configured logger behaves like a production daemon: informative,
// not chatty.
type Level int

// Levels, least to most severe.
const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the canonical lower-case level name.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name to its Level ("debug", "info", "warn",
// "error"; case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
}

// Log output formats.
const (
	// FormatText is the human-oriented `ts LEVEL msg key=value` encoding.
	FormatText = "text"
	// FormatJSON is one JSON object per line, machine-ingestible.
	FormatJSON = "json"
)

// ParseFormat validates a log format name.
func ParseFormat(s string) (string, error) {
	switch strings.ToLower(s) {
	case FormatText:
		return FormatText, nil
	case FormatJSON:
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("obs: unknown log format %q (text, json)", s)
}

// Field is one structured key/value pair of a log record or span.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; the short name keeps call sites readable.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// logSink serializes writes; With-derived loggers share their parent's sink
// so records from every scope interleave whole-line.
type logSink struct {
	mu sync.Mutex
	w  io.Writer
}

// Logger is a leveled, structured, dependency-free logger. Records below
// the configured level are dropped before any formatting work. A nil
// *Logger is a valid no-op logger, so components take one optionally and
// log unguarded.
//
// Derive scoped loggers with With (or Component); they share the parent's
// writer and level and prepend their fields to every record.
type Logger struct {
	sink   *logSink
	level  Level
	format string
	fields []Field
	now    func() time.Time // test hook; nil means time.Now
}

// NewLogger builds a logger writing to w. Format is FormatText or
// FormatJSON ("" means text).
func NewLogger(w io.Writer, level Level, format string) *Logger {
	if format == "" {
		format = FormatText
	}
	return &Logger{sink: &logSink{w: w}, level: level, format: format}
}

// With derives a logger whose records carry the given fields before any
// per-record fields.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	d := *l
	d.fields = append(append([]Field(nil), l.fields...), fields...)
	return &d
}

// Component derives a logger scoped to one component ("worker",
// "campaign", ...): every record carries component=name.
func (l *Logger) Component(name string) *Logger {
	return l.With(F("component", name))
}

// Enabled reports whether records at the given level would be emitted. Use
// it to skip expensive field computation; the log methods already check.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug, Info, Warn and Error emit one record at their level.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }
func (l *Logger) Info(msg string, fields ...Field)  { l.log(LevelInfo, msg, fields) }
func (l *Logger) Warn(msg string, fields ...Field)  { l.log(LevelWarn, msg, fields) }
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

// Log emits one record at a dynamically chosen level, for call sites that
// map outcomes (HTTP status, retry count) to severity.
func (l *Logger) Log(level Level, msg string, fields ...Field) { l.log(level, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	nowFn := l.now
	if nowFn == nil {
		nowFn = time.Now
	}
	ts := nowFn().UTC()
	var b []byte
	if l.format == FormatJSON {
		b = appendJSONRecord(nil, ts, level, msg, l.fields, fields)
	} else {
		b = appendTextRecord(nil, ts, level, msg, l.fields, fields)
	}
	l.sink.mu.Lock()
	l.sink.w.Write(b)
	l.sink.mu.Unlock()
}

// appendJSONRecord renders {"ts":...,"level":...,"msg":...,k:v,...}\n with
// scope fields before record fields, insertion order preserved.
func appendJSONRecord(b []byte, ts time.Time, level Level, msg string, scoped, fields []Field) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendQuote(b, ts.Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = strconv.AppendQuote(b, level.String())
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, msg)
	for _, f := range scoped {
		b = appendJSONField(b, f)
	}
	for _, f := range fields {
		b = appendJSONField(b, f)
	}
	return append(b, '}', '\n')
}

func appendJSONField(b []byte, f Field) []byte {
	b = append(b, ',')
	b = strconv.AppendQuote(b, f.Key)
	b = append(b, ':')
	v, err := json.Marshal(f.Value)
	if err != nil {
		// Unmarshalable values (channels, cycles) degrade to their %v text;
		// a logger must never fail the caller.
		return strconv.AppendQuote(b, fmt.Sprintf("%v", f.Value))
	}
	return append(b, v...)
}

// appendTextRecord renders `ts LEVEL msg k=v ...`\n, quoting values that
// contain spaces, quotes or control characters.
func appendTextRecord(b []byte, ts time.Time, level Level, msg string, scoped, fields []Field) []byte {
	b = append(b, ts.Format("2006-01-02T15:04:05.000Z")...)
	b = append(b, ' ')
	b = append(b, strings.ToUpper(level.String())...)
	b = append(b, ' ')
	b = append(b, msg...)
	for _, f := range scoped {
		b = appendTextField(b, f)
	}
	for _, f := range fields {
		b = appendTextField(b, f)
	}
	return append(b, '\n')
}

func appendTextField(b []byte, f Field) []byte {
	b = append(b, ' ')
	b = append(b, f.Key...)
	b = append(b, '=')
	s := formatTextValue(f.Value)
	if strings.ContainsAny(s, " \t\n\"=") || s == "" {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

func formatTextValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case time.Duration:
		return x.String()
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case error:
		return x.Error()
	default:
		return fmt.Sprintf("%v", v)
	}
}
