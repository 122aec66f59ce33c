package harden

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV renders the plan's full ranking as CSV, one row per flip-flop in
// criticality order, with the selection decision and the running
// budget-curve columns. The header is stable; downstream tooling may pin it.
func WriteCSV(w io.Writer, p *Plan) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"rank", "ff", "name", "score", "area", "selected",
		"cum_area", "cum_budget", "residual_ffr",
	}); err != nil {
		return err
	}
	all := make([]Candidate, 0, len(p.Selected)+len(p.Rest))
	all = append(all, p.Selected...)
	all = append(all, p.Rest...)
	for i, c := range all {
		// Curve[0] is the harden-nothing point; prefix i+1 describes the
		// state after hardening this row.
		pt := BudgetPoint{}
		if i+1 < len(p.Curve) {
			pt = p.Curve[i+1]
		}
		sel := "0"
		if i < len(p.Selected) {
			sel = "1"
		}
		if err := cw.Write([]string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", c.FF),
			c.Name,
			fmt.Sprintf("%g", c.Score),
			fmt.Sprintf("%g", c.Area),
			sel,
			fmt.Sprintf("%g", pt.Area),
			fmt.Sprintf("%g", pt.Budget),
			fmt.Sprintf("%g", pt.ResidualFFR),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
