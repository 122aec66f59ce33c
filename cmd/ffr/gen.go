package main

import (
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/netlist"
)

// runGen generates the MAC10GE-lite gate-level netlist (the paper's device
// under test), runs the mini synthesis pass, and writes the result in .gnl
// text format.
func runGen(c *cli.Cmd) error {
	var (
		out     = c.Flags.String("o", "", "output file (default stdout)")
		fifo    = c.Flags.Int("fifo", 32, "packet FIFO depth (power of two)")
		statW   = c.Flags.Int("statw", 16, "statistics counter width")
		ffs     = c.Flags.Int("ffs", 1054, "target flip-flop count (0 = structural minimum)")
		stats   = c.Flags.Bool("stats", false, "print netlist statistics to stderr")
		noSynth = c.Flags.Bool("nosynth", false, "skip the synthesis pass")
		tel     = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("fifo", *fifo, 2),
		c.MinInt("statw", *statW, 1),
		c.MinInt("ffs", *ffs, 0),
	); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{
		FIFODepth: *fifo,
		StatWidth: *statW,
		TargetFFs: *ffs,
	})
	if err != nil {
		return err
	}
	if !*noSynth {
		if err := circuit.Synthesize(nl); err != nil {
			return err
		}
	}
	st := nl.Stats()
	if *stats {
		fmt.Fprintf(c.Stderr, "design %s: %d cells (%d FF, %d comb), %d nets, depth %d\n",
			nl.Name, st.Cells, st.FlipFlops, st.Combo, st.Nets, st.MaxLevel)
	}
	tel.Logger.Debug("netlist generated",
		"design", nl.Name, "cells", st.Cells,
		"ffs", st.FlipFlops, "synthesized", !*noSynth)
	return writeTo(c, *out, func(w io.Writer) error { return netlist.Write(w, nl) })
}
