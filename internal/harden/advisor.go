package harden

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/persist"
)

// Candidate is one flip-flop in the criticality ranking.
type Candidate struct {
	// FF is the flip-flop index in netlist FF order — the same order
	// campaigns, feature matrices and circuit.ApplyTMR use.
	FF int
	// Name is the flip-flop instance name.
	Name string
	// Score is the model-predicted FDR, clipped to [0, 1].
	Score float64
	// Area is the incremental TMR cost of this flip-flop in
	// gate-equivalent units (two replicas plus a voter).
	Area float64
}

// BudgetPoint is one point of a plan's budget-vs-residual curve.
type BudgetPoint struct {
	// Budget is the area budget as a fraction of the full-TMR area.
	Budget float64
	// Area is the absolute hardening area in gate-equivalent units.
	Area float64
	// FFs is the number of flip-flops hardened at this point.
	FFs int
	// ResidualFFR is the predicted FFR remaining after hardening them.
	ResidualFFR float64
}

// Plan is an ordered hardening decision: which flip-flops to TMR under an
// area budget, and what FFR the model predicts remains. The ranking is a
// priority list — a smaller budget hardens a prefix of a larger budget's
// selection, which is what makes the predicted residual monotone
// non-increasing in the budget (a property the tests pin).
type Plan struct {
	// Model, Circuit and Workload identify the advising artifact and the
	// scenario the plan is for.
	Model    string
	Circuit  string
	Workload string
	// Budget is the requested area budget as a fraction of TotalArea.
	Budget float64
	// TotalArea is the cost of TMR-hardening every flip-flop; UsedArea is
	// the cost of the selected set. Gate-equivalent units.
	TotalArea float64
	UsedArea  float64
	// BaseFFR is the predicted unhardened FFR (sum of all scores);
	// ResidualFFR is the predicted FFR with the selected set hardened.
	BaseFFR     float64
	ResidualFFR float64
	// Selected are the flip-flops to harden, most critical first. Rest is
	// the remainder of the ranking, most critical first.
	Selected []Candidate
	Rest     []Candidate
	// Curve is the full budget-vs-residual trade-off, one point per
	// ranking prefix from hardening nothing to hardening everything.
	Curve []BudgetPoint
}

// SelectedFFs returns the flip-flop indices of the selected set in
// ascending order — the shape circuit.ApplyTMR and api.CampaignSpec want.
func (p *Plan) SelectedFFs() []int {
	out := make([]int, len(p.Selected))
	for i, c := range p.Selected {
		out[i] = c.FF
	}
	sort.Ints(out)
	return out
}

// Score predicts every row's failure criticality with the artifact's
// model, clipped to the [0, 1] range an FDR lives in. Rows must match the
// artifact's feature schema. A finite row can still make a model predict
// NaN or ±Inf (features near ±MaxFloat64 put every k-NN neighbour at +Inf);
// that is an error naming the row, not a score.
func Score(art *persist.Artifact, X [][]float64) ([]float64, error) {
	scores := make([]float64, len(X))
	for i, x := range X {
		if err := art.CheckVector(x); err != nil {
			return nil, fmt.Errorf("harden: row %d: %w", i, err)
		}
		s := art.Model.Predict(x)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("harden: row %d: model %q predicts %v", i, art.Name, s)
		}
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		scores[i] = s
	}
	return scores, nil
}

// Rank returns every flip-flop ordered most-critical-first: by score
// descending, then by index ascending, so the order is a function of the
// scores alone. Costs must be positive.
func Rank(scores, costs []float64, names []string) ([]Candidate, error) {
	n := len(scores)
	if n == 0 {
		return nil, fmt.Errorf("harden: no flip-flops to rank")
	}
	if len(costs) != n {
		return nil, fmt.Errorf("harden: %d costs for %d scores", len(costs), n)
	}
	if names != nil && len(names) != n {
		return nil, fmt.Errorf("harden: %d names for %d scores", len(names), n)
	}
	for i, c := range costs {
		if c <= 0 {
			return nil, fmt.Errorf("harden: flip-flop %d has non-positive area cost %v", i, c)
		}
	}
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{FF: i, Score: scores[i], Area: costs[i]}
		if names != nil {
			cands[i].Name = names[i]
		}
	}
	// Candidates start in index order, so a stable sort by score leaves
	// equal scores in ascending FF order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	return cands, nil
}

// budgetEps absorbs floating-point drift in cumulative area sums so a
// budget of exactly 1.0 always selects the full ranking.
const budgetEps = 1e-9

// NewPlan fills the budget with a prefix of the ranking: flip-flops are
// hardened strictly in criticality order and selection stops at the first
// one that does not fit. The prefix rule is what guarantees a larger
// budget selects a superset, hence a monotone non-increasing predicted
// residual FFR. budget is a fraction of the full-TMR area; 0 plans
// nothing, anything ≥ 1 plans full TMR.
func NewPlan(cands []Candidate, budget float64) (*Plan, error) {
	if !(budget >= 0) { // NaN fails every comparison
		return nil, fmt.Errorf("harden: budget %v is not >= 0", budget)
	}
	p := &Plan{Budget: budget}
	for _, c := range cands {
		p.TotalArea += c.Area
	}
	// TotalArea divides every curve point, and a plan carrying Inf or NaN
	// cannot be encoded as JSON.
	if math.IsNaN(p.TotalArea) || math.IsInf(p.TotalArea, 0) {
		return nil, fmt.Errorf("harden: area costs sum to %v", p.TotalArea)
	}
	limit := budget * p.TotalArea

	// Residuals are suffix sums of the score ranking rather than running
	// differences, so hardening everything predicts exactly zero and the
	// curve is monotone without floating-point drift.
	suffix := make([]float64, len(cands)+1)
	for i := len(cands) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + cands[i].Score
	}
	p.BaseFFR = suffix[0]

	p.Curve = make([]BudgetPoint, 0, len(cands)+1)
	p.Curve = append(p.Curve, BudgetPoint{ResidualFFR: p.BaseFFR})
	cum := 0.0
	filling := true
	for i, c := range cands {
		cum += c.Area
		frac := 1.0
		if p.TotalArea > 0 {
			frac = cum / p.TotalArea
		}
		p.Curve = append(p.Curve, BudgetPoint{
			Budget:      frac,
			Area:        cum,
			FFs:         len(p.Curve),
			ResidualFFR: suffix[i+1],
		})
		if filling && cum <= limit+budgetEps {
			p.Selected = append(p.Selected, c)
			p.UsedArea = cum
		} else {
			filling = false
			p.Rest = append(p.Rest, c)
		}
	}
	p.ResidualFFR = suffix[len(p.Selected)]
	return p, nil
}

// Advise runs the whole advisor over a materialized scenario: score every
// flip-flop with the artifact's model, rank by score, and fill the budget.
// Per-FF TMR costs come from the synthesized netlist's cell types, so a
// flip-flop that synthesis upsized costs more to triplicate. The
// artifact's feature schema must be the extractor's, name for name.
func Advise(art *persist.Artifact, m *corpus.Materialized, budget float64) (*Plan, error) {
	if err := art.CheckSchema(features.Names()); err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	scores, err := Score(art, m.Features.Rows)
	if err != nil {
		return nil, err
	}
	nl := m.Netlist
	ffIDs := nl.FFs()
	if len(ffIDs) != len(scores) {
		return nil, fmt.Errorf("harden: %d feature rows for %d flip-flops", len(scores), len(ffIDs))
	}
	costs := make([]float64, len(ffIDs))
	for i, cid := range ffIDs {
		costs[i] = circuit.TMRCost(nl.Cells[cid].Type)
	}
	cands, err := Rank(scores, costs, m.Features.InstanceNames)
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(cands, budget)
	if err != nil {
		return nil, err
	}
	plan.Model = art.Name
	plan.Circuit = m.Scenario.Entry.Name
	plan.Workload = m.Scenario.Workload.Name
	return plan, nil
}

// Errors of Materialize, matchable with errors.Is.
var (
	// ErrNoScenarioTag reports an artifact without a circuit/workload tag
	// given no scenario to advise over.
	ErrNoScenarioTag = errors.New("artifact carries no scenario tag")
	// ErrUntrainedCircuit reports a tagged scenario that materializes a
	// circuit other than the one the model was trained on.
	ErrUntrainedCircuit = errors.New("not the circuit the model was trained on")
)

// Materialize materializes the corpus scenario a plan advises over: id, or,
// when id is empty, the scenario the artifact's circuit/workload tag names.
// An artifact records no scale or seed, so a tagged scenario is held to the
// model instead: FitArtifact trains on every flip-flop, and a circuit whose
// flip-flop count is not TrainRows is ErrUntrainedCircuit (an artifact
// without TrainRows is not checked). A scenario named by id is not checked:
// advising across circuits is allowed.
func Materialize(art *persist.Artifact, id string, scale corpus.Scale, seed int64) (*corpus.Materialized, error) {
	tagged := id == ""
	if tagged {
		if art.Circuit == "" || art.Workload == "" {
			return nil, ErrNoScenarioTag
		}
		id = art.Circuit + "/" + art.Workload
	}
	sc, err := corpus.Find(id)
	if err != nil {
		return nil, err
	}
	m, err := sc.Materialize(scale, seed)
	if err != nil {
		return nil, err
	}
	if tagged && art.TrainRows != 0 && m.NumFFs() != art.TrainRows {
		return nil, fmt.Errorf("%w: %s at scale %s, seed %d has %d FFs, model %q was trained on %d",
			ErrUntrainedCircuit, id, scale, corpus.ResolveSeed(seed), m.NumFFs(), art.Name, art.TrainRows)
	}
	return m, nil
}
