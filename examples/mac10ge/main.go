// mac10ge runs the paper's full workload end to end at paper fidelity: the
// 1054-flip-flop MAC10GE-lite device, the loopback testbench, and the flat
// statistical fault-injection campaign of Section IV-A (170 injections per
// flip-flop), printing the campaign report with the FDR histogram that
// corresponds to the point clouds of Figures 2a-4a.
//
// Pass -quick to shrink the injection budget for a fast demonstration.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mac10ge:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "use 20 injections per flip-flop instead of 170")
	flag.Parse()

	cfg := repro.DefaultStudyConfig()
	if *quick {
		cfg.InjectionsPerFF = 20
	}
	study, err := repro.NewStudy(cfg)
	if err != nil {
		return err
	}
	st := study.Netlist.Stats()
	fmt.Printf("MAC10GE-lite: %d cells (%d flip-flops, %d combinational), depth %d\n",
		st.Cells, st.FlipFlops, st.Combo, st.MaxLevel)
	fmt.Printf("testbench: %d packets over %d cycles, XGMII loopback\n\n",
		cfg.Bench.Packets, study.Bench.Stim.Cycles())

	start := time.Now()
	campaign, err := study.RunGroundTruth()
	if err != nil {
		return err
	}
	fmt.Printf("flat statistical campaign finished in %v\n\n",
		time.Since(start).Round(time.Millisecond))
	return repro.RenderCampaign(os.Stdout, campaign)
}
