package plan

import (
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/persist"
)

// LoopCheckpointVersion is the current on-disk format version of a loop
// checkpoint (docs/ARCHITECTURE.md "On-disk state").
const LoopCheckpointVersion = 1

// Loop checkpoint errors, matchable with errors.Is.
var (
	// ErrLoopCheckpointCorrupt marks files that are not parseable loop
	// checkpoints.
	ErrLoopCheckpointCorrupt = errors.New("plan: corrupt loop checkpoint")
	// ErrLoopCheckpointVersion marks a parseable checkpoint of an
	// unsupported format version.
	ErrLoopCheckpointVersion = errors.New("plan: unsupported loop checkpoint version")
	// ErrLoopCheckpointMismatch marks a well-formed checkpoint that belongs
	// to a differently configured loop.
	ErrLoopCheckpointMismatch = errors.New("plan: loop checkpoint does not match configuration")
)

// roundRecord is one completed round: which flip-flops were measured and
// what the campaign counted for each (aligned with Selected).
type roundRecord struct {
	Selected, Failures, Injections []int
}

// loopCheckpoint is the on-disk state of a partially completed loop. Every
// field but Rounds is in the header line under the name tagged here, and
// pins something a selection depends on: a loop cannot resume under another
// strategy, model, seed, budget, pool or campaign and drift from the run it
// checkpointed.
type loopCheckpoint struct {
	Strategy        string        `json:"strategy"`
	Model           string        `json:"model"`
	Seed            int64         `json:"seed"`
	InjectionsPerFF int           `json:"injections_per_ff"`
	NumFFs          int           `json:"num_ffs"`
	CampaignHash    durable.Hash  `json:"campaign_hash"`
	FeaturesHash    durable.Hash  `json:"features_hash"`
	PoolHash        durable.Hash  `json:"pool_hash"`
	InitFFs         int           `json:"init_ffs"`
	RoundFFs        int           `json:"round_ffs"`
	MaxRounds       int           `json:"max_rounds"`
	BudgetFFs       int           `json:"budget_ffs"`
	DeltaTol        float64       `json:"delta_tol"`
	CIWidthTol      float64       `json:"ci_width_tol"`
	Patience        int           `json:"patience"`
	Rounds          []roundRecord `json:"-"` // the payload
}

// loopHeader is the header line after magic and version: the checkpoint's
// fields and the number of rounds the payload must hold.
type loopHeader struct {
	loopCheckpoint
	Completed int `json:"completed_rounds"`
}

var loopFormat = durable.Format{Magic: "repro/plan adaptive-loop checkpoint", Version: LoopCheckpointVersion,
	Corrupt: ErrLoopCheckpointCorrupt, Unsupported: ErrLoopCheckpointVersion}

// poolFingerprint digests the eligible flip-flop set.
func poolFingerprint(pool []int) durable.Hash {
	d := durable.NewDigest()
	d.Int(len(pool))
	for _, ff := range pool {
		d.Int(ff)
	}
	return durable.Hash(d.Sum())
}

// checkpoint snapshots the loop's identity plus the completed rounds.
func (l *Loop) checkpoint(records []roundRecord) *loopCheckpoint {
	return &loopCheckpoint{
		Strategy:        l.cfg.Strategy.Name(),
		Model:           l.cfg.ModelName,
		Seed:            l.cfg.Seed,
		InjectionsPerFF: l.cfg.Target.InjectionsPerFF(),
		NumFFs:          l.cfg.Target.NumFFs(),
		CampaignHash:    durable.Hash(l.cfg.Target.CampaignFingerprint()),
		FeaturesHash:    durable.Hash(persist.DataFingerprint(l.cfg.Target.FeatureRows(), nil)),
		PoolHash:        poolFingerprint(l.pool),
		InitFFs:         l.cfg.InitFFs,
		RoundFFs:        l.cfg.RoundFFs,
		MaxRounds:       l.cfg.MaxRounds,
		BudgetFFs:       l.cfg.BudgetFFs,
		DeltaTol:        l.cfg.DeltaTol,
		CIWidthTol:      l.cfg.CIWidthTol,
		Patience:        l.cfg.Patience,
		Rounds:          records,
	}
}

// matchCheckpoint verifies a loaded checkpoint belongs to exactly this loop
// configuration; any divergence would let the resumed run select different
// flip-flops than the interrupted one.
func (l *Loop) matchCheckpoint(ck *loopCheckpoint) error {
	want := l.checkpoint(nil)
	for _, f := range []struct {
		what      string
		got, want any
	}{
		{"strategy", ck.Strategy, want.Strategy},
		{"model", ck.Model, want.Model},
		{"seed", ck.Seed, want.Seed},
		{"injections per FF", ck.InjectionsPerFF, want.InjectionsPerFF},
		{"flip-flop count", ck.NumFFs, want.NumFFs},
		{"campaign fingerprint", ck.CampaignHash, want.CampaignHash},
		{"feature fingerprint", ck.FeaturesHash, want.FeaturesHash},
		{"pool fingerprint", ck.PoolHash, want.PoolHash},
		{"init batch", ck.InitFFs, want.InitFFs},
		{"round batch", ck.RoundFFs, want.RoundFFs},
		{"max rounds", ck.MaxRounds, want.MaxRounds},
		{"budget", ck.BudgetFFs, want.BudgetFFs},
		{"delta tolerance", ck.DeltaTol, want.DeltaTol},
		{"CI width tolerance", ck.CIWidthTol, want.CIWidthTol},
		{"patience", ck.Patience, want.Patience},
	} {
		if f.got != f.want {
			return fmt.Errorf("%w: %s differs (checkpoint %v, loop %v)", ErrLoopCheckpointMismatch, f.what, f.got, f.want)
		}
	}
	return nil
}

// saveLoopCheckpoint atomically replaces the file at path with ck.
func saveLoopCheckpoint(path string, ck *loopCheckpoint) error {
	return durable.Save(path, loopFormat, loopHeader{*ck, len(ck.Rounds)}, ck.Rounds)
}

// loadLoopCheckpoint reads and structurally validates a loop checkpoint.
// Matching it against the running configuration is matchCheckpoint's job.
func loadLoopCheckpoint(path string) (*loopCheckpoint, error) {
	var hdr loopHeader
	if err := durable.Load(path, loopFormat, &hdr, &hdr.Rounds); err != nil {
		return nil, err
	}
	if len(hdr.Rounds) != hdr.Completed {
		return nil, loopFormat.Corruptf(path, "header says %d rounds, payload has %d", hdr.Completed, len(hdr.Rounds))
	}
	return &hdr.loopCheckpoint, nil
}
