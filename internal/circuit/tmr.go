package circuit

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// This file is the netlist rewriter behind the hardening advisor
// (internal/harden): it applies the TMR structure of components.go —
// triplicated state, 2-of-3 majority vote — to an already generated
// netlist, flip-flop by flip-flop, instead of requiring the design to be
// rebuilt through the Builder with TMRWord.
//
// The rewrite targets the campaign's fault model: single-event upsets in
// flip-flops. Each selected flip-flop gains two replicas loading the same
// next-state value and one majority voter over the three outputs; every
// former reader of the flip-flop (combinational fanout, other flip-flops'
// D pins, primary outputs) is rewired to the voter. A flip in any one
// replica is out-voted the same cycle and overwritten by the shared
// next-state value on the next clock edge, so the hardened flip-flop's
// measured FDR drops to zero. Logic and voter upsets are outside the fault
// model, which is why one voter per flip-flop suffices here where TMRWord
// triplicates them.
//
// The rewrite preserves fault-free behavior exactly: with all replicas
// equal, the voter output equals the original Q, so the golden trace of
// the hardened netlist is bit-identical to the original's — an invariant
// the corpus-wide property tests pin. The netlist fingerprint, of course,
// changes.

// tmrVoterTypes resolves the voter gate types once; StdLib always carries
// them, so a failure is a programming error.
func tmrVoterTypes() (and2, or3 *netlist.CellType) {
	lib := netlist.StdLib()
	and2, err := lib.Lookup("AND2_X1")
	if err != nil {
		panic(err) // programmer error: StdLib always has AND2_X1
	}
	or3, err = lib.Lookup("OR3_X1")
	if err != nil {
		panic(err) // programmer error: StdLib always has OR3_X1
	}
	return and2, or3
}

// TMRVoterArea returns the area of one 2-of-3 majority voter (three AND2
// plus one OR3) in gate-equivalent units.
func TMRVoterArea() float64 {
	and2, or3 := tmrVoterTypes()
	return 3*and2.AreaUnits() + or3.AreaUnits()
}

// TMRCost returns the incremental area of TMR-hardening one flip-flop of
// the given cell type: two replica flip-flops plus one majority voter, in
// gate-equivalent units (netlist.CellType.AreaUnits).
func TMRCost(ff *netlist.CellType) float64 {
	return 2*ff.AreaUnits() + TMRVoterArea()
}

// ApplyTMR rewrites nl in place, TMR-hardening the flip-flops selected by
// ffs — indices into the netlist's flip-flop order (netlist.FFs), the same
// order campaigns and feature matrices use. Indices are deduplicated;
// out-of-range indices are an error and leave nl untouched.
//
// New cells are appended, so the original flip-flops keep their indices:
// flip-flop i of the hardened netlist is flip-flop i of the original for
// i < NumFFs(original), followed by the replica pairs in selection order.
// The rewrite happens pre-synthesis; Synthesize then sizes drives and
// buffers fanout as usual.
func ApplyTMR(nl *netlist.Netlist, ffs []int) error {
	ffIDs := nl.FFs()
	sel := append([]int(nil), ffs...)
	sort.Ints(sel)
	dedup := sel[:0]
	for i, idx := range sel {
		if idx < 0 || idx >= len(ffIDs) {
			return fmt.Errorf("circuit: TMR target %d out of range (netlist has %d flip-flops)", idx, len(ffIDs))
		}
		if i > 0 && idx == sel[i-1] {
			continue
		}
		dedup = append(dedup, idx)
	}
	and2, or3 := tmrVoterTypes()

	for _, idx := range dedup {
		cid := ffIDs[idx]
		ff := nl.Cells[cid] // copy: appends below may grow nl.Cells
		origQ := ff.Output
		d := ff.Inputs[0]

		// Record every reader of the original Q before the voter exists:
		// cell input pins and primary-output bindings. These all move to
		// the voted net; only the voter itself reads the raw replicas.
		type pin struct{ cell, input int }
		var readers []pin
		for ci := range nl.Cells {
			for pi, in := range nl.Cells[ci].Inputs {
				if in == origQ {
					readers = append(readers, pin{ci, pi})
				}
			}
		}

		// Cell IDs are assigned by append order; nets need them up front.
		base := netlist.CellID(len(nl.Cells))
		ids := struct{ rb, rc, ab, ac, bc, vote netlist.CellID }{
			base, base + 1, base + 2, base + 3, base + 4, base + 5,
		}
		addNet := func(suffix string, driver netlist.CellID) (netlist.NetID, error) {
			return nl.AddNet(ff.Name+suffix, driver)
		}
		qb, err := addNet(".tmr_qb", ids.rb)
		if err != nil {
			return err
		}
		qc, err := addNet(".tmr_qc", ids.rc)
		if err != nil {
			return err
		}
		wab, err := addNet(".tmr_ab", ids.ab)
		if err != nil {
			return err
		}
		wac, err := addNet(".tmr_ac", ids.ac)
		if err != nil {
			return err
		}
		wbc, err := addNet(".tmr_bc", ids.bc)
		if err != nil {
			return err
		}
		vote, err := addNet(".tmr_vote", ids.vote)
		if err != nil {
			return err
		}

		// A flip-flop feeding its own D directly must load the voted value,
		// like every other reader of its Q; the rewiring below moves the
		// original cell's pin, the replicas start there.
		dIn := d
		if d == origQ {
			dIn = vote
		}
		nl.Cells = append(nl.Cells,
			netlist.Cell{Name: ff.Name + ".tmr_b", Type: ff.Type, Inputs: []netlist.NetID{dIn}, Output: qb, Init: ff.Init},
			netlist.Cell{Name: ff.Name + ".tmr_c", Type: ff.Type, Inputs: []netlist.NetID{dIn}, Output: qc, Init: ff.Init},
			netlist.Cell{Name: ff.Name + ".tmr_ab", Type: and2, Inputs: []netlist.NetID{origQ, qb}, Output: wab},
			netlist.Cell{Name: ff.Name + ".tmr_ac", Type: and2, Inputs: []netlist.NetID{origQ, qc}, Output: wac},
			netlist.Cell{Name: ff.Name + ".tmr_bc", Type: and2, Inputs: []netlist.NetID{qb, qc}, Output: wbc},
			netlist.Cell{Name: ff.Name + ".tmr_vote", Type: or3, Inputs: []netlist.NetID{wab, wac, wbc}, Output: vote},
		)
		for _, r := range readers {
			nl.Cells[r.cell].Inputs[r.input] = vote
		}
		for oi, on := range nl.Outputs {
			if on == origQ {
				nl.Outputs[oi] = vote
			}
		}
	}
	if err := nl.Validate(); err != nil {
		return fmt.Errorf("circuit: TMR rewrite broke %q: %w", nl.Name, err)
	}
	return nil
}
