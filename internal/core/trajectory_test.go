package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/plan"
)

// committeePins records the committee planner's trajectory on three runs:
// per round, the size and an FNV-1a digest of the selected set and the
// FFR's Float64bits; per run, the final EstimateFingerprint and
// ModelFingerprint. The runs are the paper's MAC at bench/'s mac-estimate
// configuration (32 injections/FF, campaign seed 2019, seed 1, budget
// NumFFs()/2, k-NN estimate), the same planner on a restricted pool of a
// small corpus scenario, and that scenario with the SVR estimate model; then
// CompareAdaptiveStrategies on the scenario, one line per strategy. The
// values were written by the build before the committee reused the estimate
// model's predictions and must not be edited: whatever the planner shares
// between its estimate and its selection, it selects the same flip-flops and
// estimates the same numbers.
const committeePins = `mac/bench round=0 n=66 selected=9bbf5f6282a1dd24 ffr=3fbb2cb159b23a55
mac/bench round=1 n=66 selected=9d4097be89df83fb ffr=3fc392b04f2c8a20
mac/bench round=2 n=66 selected=f4ee66baa5ec9857 ffr=3fc5710492730b85
mac/bench round=3 n=66 selected=10a18d19882b1098 ffr=3fc4e135481c4a14
mac/bench round=4 n=66 selected=62121b3d379267d9 ffr=3fc4a3ee08906677
mac/bench round=5 n=66 selected=e2dcfea1ec88650d ffr=3fc4ceb224270417
mac/bench round=6 n=66 selected=4788bdd1cd0d21b7 ffr=3fc4f0206b7e2cbe
mac/bench round=7 n=65 selected=4c6d989a31d1c846 ffr=3fc4d7f685d99676
mac/bench estimate=1215882918316ad4 model=f4461b4c14b51705
rrarb/pool round=0 n=9 selected=ecd7a4f70e8235b2 ffr=3fe311d9469cf041
rrarb/pool round=1 n=9 selected=6b2c80f866dd8316 ffr=3fe31635c7bac2d8
rrarb/pool round=2 n=9 selected=c3debe002ca3c1f0 ffr=3fe3c15d3cb60051
rrarb/pool round=3 n=9 selected=93fc1aaa5a7b3c83 ffr=3fe4c6ab7ee189e3
rrarb/pool round=4 n=9 selected=2264aeaaa514dd3c ffr=3fe5a5517f003686
rrarb/pool round=5 n=9 selected=9f49281699d75593 ffr=3fe49d1337dfbb14
rrarb/pool round=6 n=9 selected=7d17ab0c3a88511c ffr=3fe472a68597d471
rrarb/pool round=7 n=9 selected=4d5ac12045e3f9a7 ffr=3fe49ba303951c76
rrarb/pool round=8 n=9 selected=8f0524ac1f376bed ffr=3fe4b2a22fb486b7
rrarb/pool round=9 n=2 selected=f13b3cab7c97de40 ffr=3fe498ae75bde3ff
rrarb/pool estimate=65761cda2e7e1041 model=aab94bc84d0e5b65
rrarb/svr round=0 n=12 selected=d39f142502ee0b21 ffr=3fdf588dd04dc1e9
rrarb/svr round=1 n=12 selected=c856fe21c5011a68 ffr=3fe190177aaa2221
rrarb/svr round=2 n=12 selected=5249e5babfe1172d ffr=3fe26c8d69afe60d
rrarb/svr round=3 n=12 selected=f1b13f15e8d59dd0 ffr=3fe3a932c6a5ca33
rrarb/svr round=4 n=12 selected=4eebe734b4afa031 ffr=3fe4adb879541134
rrarb/svr round=5 n=12 selected=c5123cc68db5d329 ffr=3fe496b99b779594
rrarb/svr round=6 n=12 selected=74f30c9cc196afda ffr=3fe42ae3a50d7ece
rrarb/svr round=7 n=12 selected=12c48ef8136d11da ffr=3fe46785768c161b
rrarb/svr round=8 n=12 selected=a5593016e3d0ec2a ffr=3fe4ef91f712d900
rrarb/svr round=9 n=12 selected=9949e3d4f16715d3 ffr=3fe4e4483f875952
rrarb/svr round=10 n=5 selected=23d1b816120ae61d ffr=3fe4d0a8e48c16d9
rrarb/svr estimate=043565200186d96d model=76f5bf27e1561f95
rrarb/compare random rounds=7 measured=64 injections=2048 ffr=3fe4164551aeae95 r2=3feb749498c11e82 tau=3fe47ac5db0fcd22
rrarb/compare committee rounds=7 measured=64 injections=2048 ffr=3fe4a1cd136c73e2 r2=3fee77f405fac324 tau=3fe607b4200ba906
`

// selectedDigest is FNV-1a over the decimal flip-flop indices, comma
// separated.
func selectedDigest(ffs []int) uint64 {
	h := fnv.New64a()
	for _, ff := range ffs {
		fmt.Fprintf(h, "%d,", ff)
	}
	return h.Sum64()
}

// trajectoryLines runs one adaptive study and renders its pin lines. With
// replay set the loop is NewAdaptiveStudy's on the study's ground-truth
// replay instead of live campaigns.
func trajectoryLines(t *testing.T, name string, s *Study, cfg AdaptiveConfig, replay bool) string {
	t.Helper()
	var b strings.Builder
	cfg.OnRound = func(r plan.Round) {
		fmt.Fprintf(&b, "%s round=%d n=%d selected=%016x ffr=%016x\n",
			name, r.Index, len(r.Selected), selectedDigest(r.Selected), math.Float64bits(r.FFR))
	}
	newLoop := NewAdaptiveStudy
	if replay {
		newLoop = func(s *Study, cfg AdaptiveConfig) (*plan.Loop, error) {
			cfg.Target = &replayTarget{studyTarget{s}, s.Config.InjectionsPerFF}
			cfg.Strategy = plan.Committee{Members: CommitteeMembers()}
			if cfg.Model == nil {
				knn := PaperModels()[1]
				cfg.Model, cfg.ModelName = knn.Factory, knn.Name
			}
			return plan.NewLoop(cfg)
		}
	}
	as, err := newLoop(s, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := as.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(&b, "%s estimate=%016x model=%016x\n", name, res.EstimateFingerprint, res.ModelFingerprint)
	return b.String()
}

func TestCommitteeTrajectoryPins(t *testing.T) {
	var got strings.Builder

	cfg := DefaultStudyConfig()
	cfg.InjectionsPerFF, cfg.CampaignSeed, cfg.Workers = 32, 2019, 1
	mac, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(trajectoryLines(t, "mac/bench", mac, AdaptiveConfig{Seed: 1, BudgetFFs: mac.NumFFs() / 2}, false))

	sc, err := corpus.Find("rrarb/uniform")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := NewCorpusStudy(sc, CorpusStudyConfig{Scale: corpus.ScaleSmall, InjectionsPerFF: 32, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var pool []int
	for ff := 0; ff < s.NumFFs(); ff++ {
		if ff%3 != 2 {
			pool = append(pool, ff)
		}
	}
	svr := PaperModels()[2]
	rrarb := func(replay bool) string {
		return trajectoryLines(t, "rrarb/pool", s, AdaptiveConfig{Seed: 3, Pool: pool, RoundFFs: 9}, replay) +
			trajectoryLines(t, "rrarb/svr", s, AdaptiveConfig{Seed: 2, Model: svr.Factory, ModelName: svr.Name, RoundFFs: 12}, replay)
	}
	live := rrarb(false)
	got.WriteString(live)

	if _, err := s.RunGroundTruth(); err != nil {
		t.Fatal(err)
	}
	// The same planner on the ground truth's replay prints the same lines
	// and simulates nothing.
	chunks := reg.Counter("ffr_campaign_chunks_completed_total", "")
	before := chunks.Value()
	if before == 0 {
		t.Fatal("the study's campaigns reported no chunks to its registry")
	}
	if replayed := rrarb(true); replayed != live {
		t.Errorf("replayed trajectories differ from the live ones:\n%s\nlive:\n%s", replayed, live)
	}
	if after := chunks.Value(); after != before {
		t.Errorf("the replayed planner simulated %v chunks", after-before)
	}
	cmp, err := s.CompareAdaptiveStrategies(plan.StrategyNames(), PaperModels()[1], 0.5, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range cmp.Outcomes {
		fmt.Fprintf(&got, "rrarb/compare %s rounds=%d measured=%d injections=%d ffr=%016x r2=%016x tau=%016x\n",
			o.Strategy, o.Rounds, o.MeasuredFFs, o.Injections,
			math.Float64bits(o.FFR), math.Float64bits(o.R2), math.Float64bits(o.Tau))
	}

	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(committeePins, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
