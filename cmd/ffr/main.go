// Command ffr is the single entry point to the reproduction: the paper's
// flow (netlist → golden simulation → fault campaign → features → train →
// predict) and everything built around it, one subcommand each.
//
// Usage:
//
//	ffr <command> [flags]
//	ffr <command> -h
//
// docs/CLI.md documents every command and flag; a test in this package
// keeps the two in step.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

// commands is the dispatch table, in the order of the paper's flow.
var commands = []struct {
	name    string
	summary string
	run     func(*cli.Cmd) error
}{
	{"gen", "generate the MAC10GE-lite netlist (.gnl)", runGen},
	{"sim", "golden simulation of the packet-loopback testbench", runSim},
	{"inject", "flat statistical fault-injection campaign (checkpointable)", runInject},
	{"feat", "extract the 25 per-flip-flop features as CSV", runFeat},
	{"train", "train and evaluate one regression model, save it as an artifact", runTrain},
	{"exp", "regenerate the paper's tables, figures and ablations", runExp},
	{"corpus", "list, validate or sweep the circuit/scenario corpus", runCorpus},
	{"plan", "active-learning campaign planner", runPlan},
	{"harden", "selective-TMR hardening advisor", runHarden},
	{"serve", "HTTP prediction service for saved model artifacts", runServe},
	{"load", "load harness for a running prediction service", runLoad},
	{"coord", "distributed-campaign coordinator", runCoord},
	{"work", "distributed-campaign worker", runWork},
}

// The first SIGINT/SIGTERM cancels the command's context: campaigns flush
// their checkpoint, servers drain. Cancellation also restores default
// delivery, so a second signal force-quits.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches "ffr <command> [flags]" and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, cmd := range commands {
		if cmd.name == args[0] {
			return cli.New(ctx, cmd.name, args[1:], stdout, stderr).Run(cmd.run)
		}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	}
	fmt.Fprintf(stderr, "ffr: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: ffr <command> [flags]   (ffr <command> -h lists a command's flags)\n\n")
	for _, cmd := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", cmd.name, cmd.summary)
	}
}
