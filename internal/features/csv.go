package features

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV serializes a feature matrix, optionally with a target column
// (the FDR values) appended. Column 0 is the instance name.
func WriteCSV(w io.Writer, m *Matrix, target []float64) error {
	if target != nil && len(target) != len(m.Rows) {
		return fmt.Errorf("features: %d targets for %d rows", len(target), len(m.Rows))
	}
	cw := csv.NewWriter(w)
	header := append([]string{"instance"}, Names()...)
	if target != nil {
		header = append(header, "fdr")
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("features: write header: %w", err)
	}
	record := make([]string, 0, len(header))
	for i, row := range m.Rows {
		if len(row) != NumFeatures {
			return fmt.Errorf("features: row %d has %d columns, want %d", i, len(row), NumFeatures)
		}
		record = record[:0]
		record = append(record, m.InstanceNames[i])
		for _, v := range row {
			record = append(record, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if target != nil {
			record = append(record, strconv.FormatFloat(target[i], 'g', -1, 64))
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("features: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("features: flush: %w", err)
	}
	return nil
}

// ReadCSV parses a matrix written by WriteCSV. It returns the matrix and the
// target column when present (nil otherwise).
func ReadCSV(r io.Reader) (*Matrix, []float64, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("features: read: %w", err)
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("features: empty CSV")
	}
	header := records[0]
	wantPlain := 1 + NumFeatures
	hasTarget := false
	switch len(header) {
	case wantPlain:
	case wantPlain + 1:
		if header[len(header)-1] != "fdr" {
			return nil, nil, fmt.Errorf("features: last column %q, want fdr", header[len(header)-1])
		}
		hasTarget = true
	default:
		return nil, nil, fmt.Errorf("features: %d columns, want %d or %d", len(header), wantPlain, wantPlain+1)
	}
	for i, name := range Names() {
		if header[i+1] != name {
			return nil, nil, fmt.Errorf("features: column %d is %q, want %q", i+1, header[i+1], name)
		}
	}
	m := &Matrix{
		InstanceNames: make([]string, 0, len(records)-1),
		Rows:          make([][]float64, 0, len(records)-1),
	}
	var target []float64
	if hasTarget {
		target = make([]float64, 0, len(records)-1)
	}
	for li, rec := range records[1:] {
		m.InstanceNames = append(m.InstanceNames, rec[0])
		row := make([]float64, NumFeatures)
		for j := 0; j < NumFeatures; j++ {
			v, err := parseFinite(rec[j+1])
			if err != nil {
				return nil, nil, fmt.Errorf("features: line %d column %d: %w", li+2, j+1, err)
			}
			row[j] = v
		}
		m.Rows = append(m.Rows, row)
		if hasTarget {
			v, err := parseFinite(rec[len(rec)-1])
			if err != nil {
				return nil, nil, fmt.Errorf("features: line %d target: %w", li+2, err)
			}
			target = append(target, v)
		}
	}
	return m, target, nil
}

// parseFinite parses one cell. ParseFloat accepts "NaN" and "Inf" spellings;
// no feature or failure rate is either, and the scalers downstream would
// spread one through a whole column.
func parseFinite(cell string) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", cell)
	}
	return v, err
}
