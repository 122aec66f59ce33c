// Package cli is the layer every ffr subcommand stands on: Cmd, one
// invocation with its own flag set and output streams; the validation
// helpers, which return errors (instead of exiting) so they are testable
// and compose with Check; the telemetry flag group; and the pieces several
// commands share — the -fault-model flag, the scenario-list parser, the CSV
// writer, the output-path check and serve-until-done-then-drain.
//
// All commands follow the same contract: flag misuse produces a one-line
// error ending in a pointer at -h — never a bare log.Fatal, never a full
// usage dump. The only two environment variables the program reads,
// FFR_LOG and FFR_FAULT_MODEL, are read here, as flag defaults.
package cli
