package features

import (
	"encoding/csv"
	"fmt"
	"io"
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
