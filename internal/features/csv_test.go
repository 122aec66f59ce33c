package features

// Focused csv.go tests complementing the extractor-driven round trip in
// extract_test.go: the artifact feature schema (internal/persist) embeds
// Names(), and a reader of `ffr feat`'s CSV relies on names, column order and
// exact float bits surviving, so those properties are pinned here on values
// an extractor never produces (sentinels, off-grid fractions, ULP
// neighbours). No program reads the file back, so the tests parse it with
// encoding/csv and strconv themselves.

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// readCSV parses what WriteCSV wrote: the instance names, the feature rows
// and, when the last header column is fdr, the target column (nil
// otherwise). It fails the test on a header that is not the schema.
func readCSV(t *testing.T, r io.Reader) (*Matrix, []float64) {
	t.Helper()
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := append([]string{"instance"}, Names()...)
	hasTarget := len(records[0]) == len(header)+1
	if hasTarget {
		header = append(header, "fdr")
	}
	if strings.Join(records[0], ",") != strings.Join(header, ",") {
		t.Fatalf("header %v, want %v", records[0], header)
	}
	m := &Matrix{}
	var target []float64
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, rec := range records[1:] {
		m.InstanceNames = append(m.InstanceNames, rec[0])
		row := make([]float64, NumFeatures)
		for j := range row {
			row[j] = parse(rec[j+1])
		}
		m.Rows = append(m.Rows, row)
		if hasTarget {
			target = append(target, parse(rec[len(rec)-1]))
		}
	}
	return m, target
}

// awkwardMatrix builds a small matrix exercising the values CSV must carry
// exactly: non-terminating binary fractions, ULP-adjacent floats, and the
// -1 sentinels the proximity features use.
func awkwardMatrix() (*Matrix, []float64) {
	m := &Matrix{InstanceNames: []string{"u_mac/ff_0", "u_fifo/ff_1", "ff[2]"}}
	for i := 0; i < 3; i++ {
		row := make([]float64, NumFeatures)
		for j := range row {
			row[j] = float64(i*NumFeatures+j) / 7
		}
		row[6] = -1 // prox_pi_max "no connected PI" sentinel
		row[NumFeatures-1] = math.Nextafter(0.1, 1) * float64(i+1)
		m.Rows = append(m.Rows, row)
	}
	return m, []float64{0, math.Nextafter(0.25, 1), 1}
}

// TestCSVRoundTripBitExact pins value fidelity at the bit level, with and
// without the target column.
func TestCSVRoundTripBitExact(t *testing.T) {
	for _, withTarget := range []bool{false, true} {
		name := "without_target"
		if withTarget {
			name = "with_target"
		}
		t.Run(name, func(t *testing.T) {
			m, target := awkwardMatrix()
			if !withTarget {
				target = nil
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, m, target); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, gotTarget := readCSV(t, &buf)
			if len(got.Rows) != len(m.Rows) {
				t.Fatalf("%d rows, want %d", len(got.Rows), len(m.Rows))
			}
			for i := range m.Rows {
				if got.InstanceNames[i] != m.InstanceNames[i] {
					t.Errorf("row %d instance %q, want %q", i, got.InstanceNames[i], m.InstanceNames[i])
				}
				for j := range m.Rows[i] {
					if math.Float64bits(got.Rows[i][j]) != math.Float64bits(m.Rows[i][j]) {
						t.Errorf("row %d col %d: %v, want %v (bits differ)",
							i, j, got.Rows[i][j], m.Rows[i][j])
					}
				}
			}
			if withTarget {
				if gotTarget == nil {
					t.Fatal("target column lost")
				}
				for i := range target {
					if math.Float64bits(gotTarget[i]) != math.Float64bits(target[i]) {
						t.Errorf("target %d: %v, want %v", i, gotTarget[i], target[i])
					}
				}
			} else if gotTarget != nil {
				t.Fatalf("unexpected target column %v", gotTarget)
			}
		})
	}
}

// TestCSVHeaderMatchesSchema pins the on-disk column order to Names().
func TestCSVHeaderMatchesSchema(t *testing.T) {
	m, _ := awkwardMatrix()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	cols := strings.Split(header, ",")
	if len(cols) != 1+NumFeatures {
		t.Fatalf("%d header columns, want %d", len(cols), 1+NumFeatures)
	}
	if cols[0] != "instance" {
		t.Errorf("first column %q, want instance", cols[0])
	}
	for j, want := range Names() {
		if cols[j+1] != want {
			t.Errorf("column %d is %q, want %q", j+1, cols[j+1], want)
		}
	}
}

func TestWriteCSVRejectsRaggedRows(t *testing.T) {
	m, _ := awkwardMatrix()
	m.Rows[1] = m.Rows[1][:3]
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, nil); err == nil {
		t.Error("ragged row accepted")
	}
}
