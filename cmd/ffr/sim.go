package main

import (
	"strconv"

	"repro/internal/circuit"
	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// runSim runs the packet-loopback testbench on the MAC10GE-lite design (the
// golden simulation of the paper's flow) and reports delivered packets and
// per-flip-flop signal activity.
func runSim(c *cli.Cmd) error {
	var (
		packets = c.Flags.Int("packets", 10, "packets to send")
		seed    = c.Flags.Uint64("seed", 0x10ABCDEF, "payload generator seed")
		actOut  = c.Flags.String("activity", "", "write per-FF activity CSV to this file")
		tel     = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("packets", *packets, 1),
		cli.Creatable("activity", *actOut),
	); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	benchCfg := circuit.DefaultMACBenchConfig()
	benchCfg.Packets = *packets
	benchCfg.Seed = *seed
	m, err := corpus.MACScenario(circuit.DefaultMACConfig(), benchCfg).Materialize(corpus.ScaleDefault, 1)
	if err != nil {
		return err
	}
	// The MAC scenario's criterion carries the testbench it decodes with.
	bench := m.Bench.Classifier.(*fault.MACClassifier).Bench
	p, nl, trace, act := m.Program, m.Netlist, m.Golden, m.Activity

	got := bench.LanePackets(trace, 0)
	tel.Logger.Debug("golden run complete",
		"cycles", bench.Stim.Cycles(),
		"sent", len(bench.Packets),
		"received", len(got))
	c.Printf("simulated %d cycles, sent %d packets, received %d packets\n",
		bench.Stim.Cycles(), len(bench.Packets), len(got))
	for i, pkt := range got {
		status := "ok"
		if pkt.Err {
			status = "CRC ERROR"
		}
		c.Printf("  packet %2d: %3d bytes  %s\n", i, len(pkt.Payload), status)
	}
	toggled := 0
	for _, tg := range act.Toggles {
		if tg > 0 {
			toggled++
		}
	}
	c.Printf("activity: %d of %d flip-flops toggled during the run\n", toggled, p.NumFFs())

	if *actOut == "" {
		return nil
	}
	rows := make([][]string, p.NumFFs())
	for i := range rows {
		rows[i] = []string{
			nl.Cells[p.FFCell(i)].Name,
			ftoa(float64(act.Ones[i]) / float64(act.Cycles)),
			strconv.FormatInt(act.Toggles[i], 10),
		}
	}
	if err := cli.WriteCSV(*actOut, []string{"instance", "at1", "toggles"}, rows); err != nil {
		return err
	}
	c.Printf("wrote activity for %d flip-flops to %s\n", p.NumFFs(), *actOut)
	return nil
}
