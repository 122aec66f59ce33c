package durable_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/durable"
)

var (
	errCorrupt = errors.New("test: corrupt file")
	errVersion = errors.New("test: unsupported version")
	errRefused = errors.New("test: header refused")

	format = durable.Format{Magic: "repro/durable test file", Version: 3, Corrupt: errCorrupt, Unsupported: errVersion}
)

// header has the three kinds of field the real headers have: a hash, an
// optional string and a plain number.
type header struct {
	Hash  durable.Hash `json:"hash"`
	Note  string       `json:"note,omitempty"`
	Count int          `json:"count"`
}

// Validate refuses one note, to show what Load does with a refusal.
func (h *header) Validate() error {
	if h.Note == "refuse me" {
		return errRefused
	}
	return nil
}

// shape is an interface-typed payload field, as in a model artifact.
type shape interface{ Area() float64 }

type square struct{ Side float64 }

func (s square) Area() float64 { return s.Side * s.Side }

func init() { gob.Register(square{}) }

// payloads are the three shapes of payload the system writes: a map of
// slices (campaign checkpoint), a slice of structs (loop checkpoint) and a
// struct holding an interface value (model artifact). Each entry has the
// value to save and a function returning a fresh pointer to load into.
var payloads = []struct {
	name  string
	value any
	fresh func() any
}{
	{"map", map[int][]uint64{0: {1, 2}, 7: {^uint64(0)}}, func() any { return new(map[int][]uint64) }},
	{"structs", []struct{ A, B []int }{{[]int{1}, []int{2, 3}}, {nil, []int{4}}}, func() any { return new([]struct{ A, B []int }) }},
	{"interface", struct{ S shape }{square{3}}, func() any { return new(struct{ S shape }) }},
}

func save(t *testing.T, path string, h header, payload any) {
	t.Helper()
	if err := durable.Save(path, format, h, payload); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, p := range payloads {
		t.Run(p.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			want := header{Hash: 0xdeadbeef, Note: "n", Count: 2}
			save(t, path, want, p.value)
			var got header
			back := p.fresh()
			if err := durable.Load(path, format, &got, back); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("header %+v, want %+v", got, want)
			}
			if got := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(got, p.value) {
				t.Errorf("payload %v, want %v", got, p.value)
			}
		})
	}
}

func TestHeaderLineIsMagicVersionThenFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	save(t, path, header{Hash: 0xab, Count: 1}, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"magic":"repro/durable test file","version":3,"hash":"ab","count":1}` + "\n"
	if !bytes.HasPrefix(data, []byte(want)) {
		t.Errorf("file starts %q, want %q", data[:min(len(data), len(want))], want)
	}
}

// A torn write cannot be observed through Save, which renames a complete
// file into place; this is what Load makes of one anyway. No proper prefix
// of a valid file, and no valid file with anything appended, may load.
func TestTornAndPaddedFilesAreCorrupt(t *testing.T) {
	for _, p := range payloads {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			whole := filepath.Join(dir, "whole")
			save(t, whole, header{Hash: 1, Count: 2}, p.value)
			data, err := os.ReadFile(whole)
			if err != nil {
				t.Fatal(err)
			}
			cut := filepath.Join(dir, "cut")
			load := func(content []byte) error {
				if err := os.WriteFile(cut, content, 0o644); err != nil {
					t.Fatal(err)
				}
				var h header
				return durable.Load(cut, format, &h, p.fresh())
			}
			for n := 0; n < len(data); n++ {
				if err := load(data[:n]); !errors.Is(err, errCorrupt) {
					t.Fatalf("first %d of %d bytes: %v, want the corrupt error", n, len(data), err)
				}
			}
			if err := load(data); err != nil {
				t.Fatalf("whole file: %v", err)
			}
			for _, tail := range []string{"G", "GARBAGE", "\n", string(data)} {
				if err := load(append(data[:len(data):len(data)], tail...)); !errors.Is(err, errCorrupt) {
					t.Errorf("%d bytes appended: %v, want the corrupt error", len(tail), err)
				}
			}
		})
	}
}

// A Save that fails at any step leaves what was at path as it was and no
// temporary sibling in the directory. The rename is made to fail by putting
// a directory where the file should go: nothing else refuses a rename to
// root, and tests run as root in CI containers.
func TestFailedSaveLeavesPreviousFile(t *testing.T) {
	for _, tc := range []struct {
		name    string
		header  any
		payload any
		dirPath bool // path is a non-empty directory
	}{
		{name: "payload gob cannot encode", header: header{}, payload: func() {}},
		{name: "header json cannot marshal", header: struct{ C chan int }{}, payload: 1},
		{name: "header that is not an object", header: 7, payload: 1},
		{name: "header line over the limit", header: header{Note: strings.Repeat("x", durable.MaxHeader)}, payload: 1},
		{name: "rename onto a directory", header: header{}, payload: 1, dirPath: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if tc.dirPath {
				if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
			} else {
				save(t, path, header{Hash: 5, Count: 1}, 41)
			}
			err := durable.Save(path, format, tc.header, tc.payload)
			if err == nil {
				t.Fatal("Save succeeded")
			}
			if !strings.Contains(err.Error(), format.Magic) || !strings.Contains(err.Error(), path) {
				t.Errorf("error %q names neither the format nor the path", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "f" {
				t.Errorf("directory holds %v after the failed Save, want only f", entries)
			}
			if tc.dirPath {
				return
			}
			var h header
			var v int
			if err := durable.Load(path, format, &h, &v); err != nil || h.Hash != 5 || v != 41 {
				t.Errorf("previous file: header %+v, payload %d, error %v", h, v, err)
			}
		})
	}
	if err := durable.Save(filepath.Join(t.TempDir(), "absent", "f"), format, header{}, 1); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Save into a missing directory: %v, want fs.ErrNotExist", err)
	}
}

func TestLoadMapsFailuresOntoTheFormatsErrors(t *testing.T) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(9); err != nil {
		t.Fatal(err)
	}
	head := `{"magic":"repro/durable test file","version":3,`
	for _, tc := range []struct {
		name, line string
		want       error
	}{
		{"as saved", head + `"hash":"ab","count":1}`, nil},
		{"optional field present", head + `"hash":"ab","note":"n","count":1}`, nil},
		{"not json", `hello`, errCorrupt},
		{"json but not an object", `[1]`, errCorrupt},
		{"another magic", `{"magic":"repro/fault campaign checkpoint","version":3,"hash":"ab","count":1}`, errCorrupt},
		{"no magic", `{"version":3,"hash":"ab","count":1}`, errCorrupt},
		{"another version", `{"magic":"repro/durable test file","version":4,"anything":true}`, errVersion},
		{"version of another type", `{"magic":"repro/durable test file","version":"3","hash":"ab","count":1}`, errCorrupt},
		{"missing field", head + `"count":1}`, errCorrupt},
		{"unknown field", head + `"hash":"ab","count":1,"extra":0}`, errCorrupt},
		{"fields reordered", head + `"count":1,"hash":"ab"}`, errCorrupt},
		{"field repeated", head + `"hash":"cd","hash":"ab","count":1}`, errCorrupt},
		{"space in the line", head + ` "hash":"ab","count":1}`, errCorrupt},
		{"hash in upper case", head + `"hash":"AB","count":1}`, errCorrupt},
		{"hash with leading zero", head + `"hash":"0ab","count":1}`, errCorrupt},
		{"hash that is not hex", head + `"hash":"xyz","count":1}`, errCorrupt},
		{"hash that is empty", head + `"hash":"","count":1}`, errCorrupt},
		{"hash of 17 digits", head + `"hash":"10000000000000000","count":1}`, errCorrupt},
		{"hash as a number", head + `"hash":171,"count":1}`, errCorrupt},
		{"number as 1.0", head + `"hash":"ab","count":1.0}`, errCorrupt},
		{"refused by Validate", head + `"hash":"ab","note":"refuse me","count":1}`, errRefused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			if err := os.WriteFile(path, append([]byte(tc.line+"\n"), payload.Bytes()...), 0o644); err != nil {
				t.Fatal(err)
			}
			var h header
			var v int
			err := durable.Load(path, format, &h, &v)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load: %v, want %v", err, tc.want)
			}
			if err != nil && !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
			if tc.want == errRefused && errors.Is(err, errCorrupt) {
				t.Errorf("a header's own refusal came back as the corrupt error: %v", err)
			}
		})
	}
	var h header
	var v int
	if err := durable.Load(filepath.Join(t.TempDir(), "absent"), format, &h, &v); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
}

// headerOfSize returns a header whose line is exactly n bytes long.
func headerOfSize(n int) header {
	empty := len(`{"magic":"repro/durable test file","version":3,"hash":"0","note":"","count":0}` + "\n")
	return header{Note: strings.Repeat("x", n-empty)}
}

func TestHeaderLineIsBounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	save(t, path, headerOfSize(durable.MaxHeader), 1)
	var h header
	var v int
	if err := durable.Load(path, format, &h, &v); err != nil {
		t.Fatalf("a header line of exactly MaxHeader bytes: %v", err)
	}

	// One byte more: Save will not write it, and Load will not read it when
	// something else did.
	if err := durable.Save(path, format, headerOfSize(durable.MaxHeader+1), 1); err == nil {
		t.Error("Save wrote a header line of MaxHeader+1 bytes")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	longer := bytes.Replace(data, []byte(`"note":"`), []byte(`"note":"x`), 1)
	if err := os.WriteFile(path, longer, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.Load(path, format, &h, &v); !errors.Is(err, errCorrupt) {
		t.Errorf("a header line of MaxHeader+1 bytes: %v, want the corrupt error", err)
	}

	// A file without any newline is given up on after MaxHeader bytes, not
	// pulled into memory whole: 64 MiB of zeros cost a few MiB to refuse.
	huge := filepath.Join(dir, "huge")
	if err := os.WriteFile(huge, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(huge, 64<<20); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = durable.Load(huge, format, &h, &v)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCorrupt) {
		t.Errorf("64 MiB without a newline: %v, want the corrupt error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("refusing a 64 MiB file allocated %d MiB", got>>20)
	}
}
