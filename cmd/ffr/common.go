package main

import (
	"io"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/core"
)

// ftoa formats a float the way every CSV this tool writes does: shortest
// representation that round-trips.
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// writeTo runs write on an output destination: Stdout when path is empty,
// else a new file at path, whose close error is reported.
func writeTo(c *cli.Cmd, path string, write func(io.Writer) error) error {
	if path == "" {
		return write(c.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// macStudy builds the paper's study — the 1054-flip-flop MAC — with n
// injections per flip-flop, logging to the command's logger.
func macStudy(n int, tel *cli.Telemetry) (*core.Study, error) {
	cfg := core.DefaultStudyConfig()
	cfg.InjectionsPerFF = n
	cfg.Logger = tel.Logger
	return core.NewStudy(cfg)
}
