package fault_test

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func sampleCheckpoint() *fault.Checkpoint {
	return &fault.Checkpoint{
		PlanHash:       0xdeadbeefcafe,
		GoldenHash:     0x1234567890ab,
		ClassifierHash: 0x42,
		Schedule:       "clustered",
		Model:          "seu",
		TotalJobs:      5 * sim.Lanes,
		ChunkJobs:      2 * sim.Lanes,
		NumChunks:      3,
		Chunks: map[int][]uint64{
			0: {0xffffffffffffffff, 0},
			2: {42}, // tail chunk: one batch
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ffr")
	want := sampleCheckpoint()
	if err := fault.SaveCheckpoint(path, want); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	got, err := fault.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip lost data:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCheckpointSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.ffr")
	if err := fault.SaveCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatalf("first save: %v", err)
	}
	// Overwrite with more chunks; no temp litter may remain.
	c := sampleCheckpoint()
	c.Chunks[1] = []uint64{1, 2}
	if err := fault.SaveCheckpoint(path, c); err != nil {
		t.Fatalf("second save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck.ffr" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory litter after save: %v", names)
	}
	got, err := fault.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if len(got.Chunks) != 3 {
		t.Fatalf("overwrite lost chunks: %+v", got.Chunks)
	}
}

func TestCheckpointLoadMissingFile(t *testing.T) {
	_, err := fault.LoadCheckpoint(filepath.Join(t.TempDir(), "absent.ffr"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	goodHeader := func(version int) string {
		return fmt.Sprintf(`{"magic":"repro/fault campaign checkpoint","version":%d,`+
			`"plan_hash":"1","golden_hash":"2","classifier_hash":"3","schedule":"clustered","fault_model":"seu",`+
			`"total_jobs":64,"chunk_jobs":64,"num_chunks":1,"completed_chunks":0}`,
			version)
	}
	gobOf := func(m map[int][]uint64) []byte {
		var sb strings.Builder
		if err := gob.NewEncoder(&sb).Encode(m); err != nil {
			t.Fatal(err)
		}
		return []byte(sb.String())
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, fault.ErrCheckpointCorrupt},
		{"no-newline", []byte(`{"magic":"x"}`), fault.ErrCheckpointCorrupt},
		{"not-json", []byte("garbage\n"), fault.ErrCheckpointCorrupt},
		{"wrong-magic", append([]byte(`{"magic":"something else","version":1,"plan_hash":"0","golden_hash":"0"}`+"\n"), gobOf(nil)...), fault.ErrCheckpointCorrupt},
		{"missing-classifier-hash", append([]byte(`{"magic":"repro/fault campaign checkpoint","version":1,"plan_hash":"1","golden_hash":"2","total_jobs":64,"chunk_jobs":64,"num_chunks":1}`+"\n"), gobOf(nil)...), fault.ErrCheckpointCorrupt},
		{"future-version", append([]byte(goodHeader(99)+"\n"), gobOf(nil)...), fault.ErrCheckpointVersion},
		{"truncated-payload", []byte(goodHeader(1) + "\n"), fault.ErrCheckpointCorrupt},
		{"payload-garbage", append([]byte(goodHeader(1)+"\n"), 'x', 'y', 'z'), fault.ErrCheckpointCorrupt},
		{"chunk-out-of-range", append([]byte(goodHeader(1)+"\n"), gobOf(map[int][]uint64{5: {0}})...), fault.ErrCheckpointCorrupt},
		{"mask-length-wrong", append([]byte(goodHeader(1)+"\n"), gobOf(map[int][]uint64{0: {0, 0, 0}})...), fault.ErrCheckpointCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := write(tc.name, tc.data)
			_, err := fault.LoadCheckpoint(p)
			if !errors.Is(err, tc.want) {
				t.Fatalf("LoadCheckpoint(%s) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// The dialects of earlier builds are refused as ErrCheckpointVersion, with
// the error saying which: masks packed in plan order (no schedule, or
// "plan") and a header from before fault models (no fault_model).
func TestCheckpointRefusesLegacyHeader(t *testing.T) {
	var sb strings.Builder
	if err := gob.NewEncoder(&sb).Encode(map[int][]uint64(nil)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, fields, says string }{
		{"no-schedule", `"fault_model":"seu",`, "plan order"},
		{"plan-order", `"schedule":"plan","fault_model":"seu",`, "plan order"},
		{"no-fault-model", `"schedule":"clustered",`, "no fault model"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := `{"magic":"repro/fault campaign checkpoint","version":1,` +
				`"plan_hash":"1","golden_hash":"2","classifier_hash":"3",` + tc.fields +
				`"total_jobs":64,"chunk_jobs":64,"num_chunks":1,"completed_chunks":0}`
			p := filepath.Join(t.TempDir(), "legacy.ffr")
			if err := os.WriteFile(p, append([]byte(hdr+"\n"), sb.String()...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := fault.LoadCheckpoint(p)
			if !errors.Is(err, fault.ErrCheckpointVersion) || !strings.Contains(err.Error(), tc.says) {
				t.Fatalf("LoadCheckpoint = %v, want ErrCheckpointVersion saying %q", err, tc.says)
			}
		})
	}
}

func TestCheckpointRejectsBadGeometry(t *testing.T) {
	// ChunkJobs not a multiple of the lane count can never have been
	// written by the runner; a doctored header must not load.
	hdr := `{"magic":"repro/fault campaign checkpoint","version":1,` +
		`"plan_hash":"1","golden_hash":"2","classifier_hash":"3","schedule":"clustered","fault_model":"seu",` +
		`"total_jobs":100,"chunk_jobs":70,"num_chunks":2,"completed_chunks":0}`
	var sb strings.Builder
	if err := gob.NewEncoder(&sb).Encode(map[int][]uint64(nil)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "geom.ffr")
	if err := os.WriteFile(p, append([]byte(hdr+"\n"), sb.String()...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.LoadCheckpoint(p); !errors.Is(err, fault.ErrCheckpointCorrupt) {
		t.Fatalf("bad geometry loaded: %v", err)
	}
}

func TestPlanFingerprint(t *testing.T) {
	a := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 42)
	b := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 42)
	if fault.PlanFingerprint(a) != fault.PlanFingerprint(b) {
		t.Fatal("identical plans fingerprint differently")
	}
	c := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 43)
	if fault.PlanFingerprint(a) == fault.PlanFingerprint(c) {
		t.Fatal("different plans share a fingerprint")
	}
	// Order matters: a plan is not a multiset.
	d := append([]fault.Job(nil), a...)
	d[0], d[1] = d[1], d[0]
	if fault.PlanFingerprint(a) == fault.PlanFingerprint(d) {
		t.Fatal("reordered plan shares a fingerprint")
	}
	if fault.PlanFingerprint(nil) == fault.PlanFingerprint(a[:1]) {
		t.Fatal("empty and single-job plans collide")
	}
}
