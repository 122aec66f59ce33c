package cli

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// Cmd is one invocation of an ffr subcommand: the context that cancels
// it, its name, its own flag set and the two streams it may write to.
// Nothing below reads a process global, so a test drives a command
// exactly as main does.
type Cmd struct {
	Ctx    context.Context
	Name   string
	Flags  *flag.FlagSet
	Stdout io.Writer
	Stderr io.Writer
	args   []string
}

// New prepares the invocation "ffr <name> <args...>". The subcommand
// registers its flags on Flags, then calls Parse.
func New(ctx context.Context, name string, args []string, stdout, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet("ffr "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{Ctx: ctx, Name: name, Flags: fs, Stdout: stdout, Stderr: stderr, args: args}
}

// errFlags marks arguments the flag package rejected; it has already
// printed the reason and the flag list to Stderr.
var errFlags = errors.New("unparseable flags")

// Parse parses the invocation's arguments. No ffr command takes
// positional arguments, so any left over are flag misuse.
func (c *Cmd) Parse() error {
	if err := c.Flags.Parse(c.args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}
	if args := c.Flags.Args(); len(args) > 0 {
		return c.UsageErrorf("unexpected arguments: %v", args)
	}
	return nil
}

// Run executes the subcommand and maps its error to the exit code: 0 on
// success and for -h, 2 for flags that do not parse, 1 for anything
// else, reported on Stderr as one "<name>: <error>" line.
func (c *Cmd) Run(fn func(*Cmd) error) int {
	err := fn(c)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	}
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.Name, err)
	return 1
}

// Printf writes to the command's Stdout.
func (c *Cmd) Printf(format string, args ...any) {
	fmt.Fprintf(c.Stdout, format, args...)
}

// Check returns the first non-nil error, letting a command validate all of
// its flags in one expression.
func Check(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// UsageErrorf formats a flag-validation failure the standard way: the
// message, then a pointer at the command's -h.
func (c *Cmd) UsageErrorf(format string, args ...any) error {
	return fmt.Errorf("%s (run 'ffr %s -h' for usage)", fmt.Sprintf(format, args...), c.Name)
}

// MinInt requires flag -name to be at least min.
func (c *Cmd) MinInt(name string, v, min int) error {
	if v < min {
		return c.UsageErrorf("-%s must be >= %d (got %d)", name, min, v)
	}
	return nil
}

// OpenUnit requires flag -name to lie strictly inside (0,1).
func (c *Cmd) OpenUnit(name string, v float64) error {
	if !(0 < v && v < 1) { // NaN fails every comparison
		return c.UsageErrorf("-%s must be in (0,1) exclusive (got %g)", name, v)
	}
	return nil
}

// NonNegFloat requires flag -name to be zero or positive.
func (c *Cmd) NonNegFloat(name string, v float64) error {
	if !(v >= 0) { // NaN fails every comparison
		return c.UsageErrorf("-%s must be >= 0 (got %g)", name, v)
	}
	return nil
}

// Requires enforces a flag dependency: when -name is used, -dependency must
// be set too. Pass the violation as ok == false.
func (c *Cmd) Requires(name, dependency string, ok bool) error {
	if !ok {
		return c.UsageErrorf("-%s requires -%s", name, dependency)
	}
	return nil
}

// OneOf requires flag -name to be one of the valid values ("" is allowed
// only when listed).
func (c *Cmd) OneOf(name, v string, valid ...string) error {
	for _, ok := range valid {
		if v == ok {
			return nil
		}
	}
	shown := make([]string, 0, len(valid))
	for _, s := range valid {
		if s != "" {
			shown = append(shown, s)
		}
	}
	return c.UsageErrorf("-%s must be one of %s (got %q)", name, strings.Join(shown, ", "), v)
}

// FaultModel registers -fault-model, whose default is seu, and returns the
// function that parses the chosen value once Parse has run.
func (c *Cmd) FaultModel(usage string) func() (fault.Model, error) {
	s := c.Flags.String("fault-model", "seu", usage)
	return func() (fault.Model, error) {
		m, err := fault.ParseModel(*s)
		if err != nil {
			return m, c.UsageErrorf("bad -fault-model: %v", err)
		}
		return m, nil
	}
}

// Campaign registers the flags of a corpus campaign that ffr coord and ffr
// harden share — its identity (-scenario, -scale, -seed, -n,
// -campaign-seed, -chunk) and this node's checkpointing (-checkpoint,
// -resume, -checkpoint-every) — and returns the function that validates
// them once Parse has run and returns them as the spec and runner config
// fabric.BuildCampaign takes. scenario is the -scenario flag's usage.
func (c *Cmd) Campaign(scenario string) func() (api.CampaignSpec, fault.RunnerConfig, error) {
	var (
		spec  api.CampaignSpec
		local fault.RunnerConfig
	)
	fs := c.Flags
	fs.StringVar(&spec.Scenario, "scenario", "", scenario)
	fs.StringVar(&spec.Scale, "scale", "small", "corpus scale (small, default)")
	fs.Int64Var(&spec.Seed, "seed", 1, "scenario materialization seed (netlist + workload; 0 means 1)")
	fs.IntVar(&spec.InjectionsPerFF, "n", 0, "injections per flip-flop (0 = scenario default)")
	fs.Int64Var(&spec.CampaignSeed, "campaign-seed", 0, "injection sampling seed (0 = scenario default)")
	fs.IntVar(&spec.ChunkJobs, "chunk", 0, "shard chunk size in jobs (0 = runner default, rounded to 64-lane batches)")
	fs.StringVar(&local.CheckpointPath, "checkpoint", "", "campaign checkpoint file (optional)")
	fs.BoolVar(&local.Resume, "resume", false, "resume from -checkpoint if it exists, skipping completed chunks")
	fs.IntVar(&local.CheckpointEvery, "checkpoint-every", 0, "completed chunks between checkpoint flushes (0 = default)")
	return func() (api.CampaignSpec, fault.RunnerConfig, error) {
		return spec, local, Check(
			c.MinInt("n", spec.InjectionsPerFF, 0),
			c.MinInt("chunk", spec.ChunkJobs, 0),
			c.MinInt("checkpoint-every", local.CheckpointEvery, 0),
			c.Requires("resume", "checkpoint", !local.Resume || local.CheckpointPath != ""),
		)
	}
}

// OnlyWith refuses the named flags when they were set on the command line
// without what they apply to (ok false): "-a, -b: only with <what>".
func (c *Cmd) OnlyWith(what string, ok bool, names ...string) error {
	if ok {
		return nil
	}
	var misused []string
	c.Flags.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			misused = append(misused, "-"+f.Name)
		}
	})
	if len(misused) > 0 {
		return c.UsageErrorf("%s: only with %s", strings.Join(misused, ", "), what)
	}
	return nil
}

// Scenarios resolves a comma-separated list of corpus scenario IDs,
// rejecting unknown and repeated entries.
func Scenarios(list string) ([]corpus.Scenario, error) {
	var out []corpus.Scenario
	seen := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		sc, err := corpus.Find(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		if seen[sc.ID()] {
			return nil, fmt.Errorf("scenario %q selected twice", sc.ID())
		}
		seen[sc.ID()] = true
		out = append(out, sc)
	}
	return out, nil
}

// Creatable reports whether the file -name points at can be created or
// overwritten, so a command learns that before the campaign whose result
// the file is for, not after. An existing file is left as it is and a
// missing one is not left behind; an empty path passes.
func Creatable(name, path string) error {
	if path == "" {
		return nil
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("-%s: %w", name, err)
	}
	f.Close()
	if errors.Is(statErr, os.ErrNotExist) {
		os.Remove(path)
	}
	return nil
}

// WriteCSV writes header and rows to a new file at path.
func WriteCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(append([][]string{header}, rows...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Serve listens on addr, announces "<name>: listening on <address><note>"
// on Stdout, and serves h while until runs; until gets a context that is
// canceled with the command's or when the listener fails. Once until
// returns, in-flight requests get 15 s to drain. The error is the
// listener's if it failed, else until's.
func (c *Cmd) Serve(addr string, h http.Handler, note string, until func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ctx, cancel := context.WithCancel(c.Ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- srv.Serve(ln)
		cancel()
	}()
	c.Printf("%s: listening on %s%s\n", c.Name, ln.Addr(), note)

	untilErr := until(ctx)
	drainCtx, stop := context.WithTimeout(context.WithoutCancel(c.Ctx), 15*time.Second)
	defer stop()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return untilErr
}
