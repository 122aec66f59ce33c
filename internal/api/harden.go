package api

// HardenRequest is the body of POST /v1/harden: ask a served model for a
// selective-TMR hardening plan under an area budget.
//
// The flip-flop population comes from one of two places. Explicit mode sets
// Vectors (one feature row per flip-flop) plus Costs (per-FF TMR area) and
// optionally Names; the server scores exactly what it was given. Scenario
// mode leaves Vectors empty: the server materializes Scenario (or, when
// that is empty too, the corpus scenario the artifact is tagged with) and
// derives rows, costs and names itself.
type HardenRequest struct {
	// Model names the served artifact that scores criticality.
	Model string `json:"model"`
	// Budget is the area budget as a fraction of the full-TMR area;
	// negative is rejected, anything >= 1 plans full TMR.
	Budget float64 `json:"budget"`

	// Vectors, Costs and Names select explicit mode (see type comment).
	Vectors [][]float64 `json:"vectors,omitempty"`
	Costs   []float64   `json:"costs,omitempty"`
	Names   []string    `json:"names,omitempty"`

	// Scenario, Scale and ScenarioSeed select scenario mode. Scale empty
	// means small; ScenarioSeed is the materialization seed, 0 meaning 1 —
	// the default of ffr harden -seed and of every study that trains an
	// artifact.
	Scenario     string `json:"scenario,omitempty"`
	Scale        string `json:"scale,omitempty"`
	ScenarioSeed int64  `json:"scenario_seed,omitempty"`
}

// HardenCandidate is one ranked flip-flop of a hardening plan.
type HardenCandidate struct {
	FF    int     `json:"ff"`
	Name  string  `json:"name,omitempty"`
	Score float64 `json:"score"`
	Area  float64 `json:"area"`
}

// HardenBudgetPoint is one point of the budget-vs-residual curve.
type HardenBudgetPoint struct {
	Budget      float64 `json:"budget"`
	Area        float64 `json:"area"`
	FFs         int     `json:"ffs"`
	ResidualFFR float64 `json:"residual_ffr"`
}

// HardenResponse is the success body of POST /v1/harden: the plan, ready
// to feed into a campaign spec's Harden list for verification.
type HardenResponse struct {
	Model    string `json:"model"`
	Circuit  string `json:"circuit,omitempty"`
	Workload string `json:"workload,omitempty"`

	Budget      float64 `json:"budget"`
	TotalArea   float64 `json:"total_area"`
	UsedArea    float64 `json:"used_area"`
	BaseFFR     float64 `json:"base_ffr"`
	ResidualFFR float64 `json:"residual_ffr"`

	// Selected is the hardening set, most critical first; SelectedFFs is
	// the same set as ascending indices — the shape CampaignSpec.Harden
	// wants.
	Selected    []HardenCandidate   `json:"selected"`
	SelectedFFs []int               `json:"selected_ffs"`
	Rest        []HardenCandidate   `json:"rest,omitempty"`
	Curve       []HardenBudgetPoint `json:"curve,omitempty"`
}
