package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/corpus"
	"repro/internal/harden"
	"repro/internal/persist"
)

// handleHarden serves POST /v1/harden: a selective-TMR hardening plan from
// a served model. Explicit mode scores caller-supplied feature rows;
// scenario mode materializes a corpus scenario (the request's, or the one
// the artifact is tagged with) and scores its flip-flops. Plans are pure
// computation over the model — no campaign runs here; verification is the
// ffr harden CLI's job.
func (s *Server) handleHarden(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req api.HardenRequest
	if err := api.ReadJSON(r, w, 64<<20, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if req.Model == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "missing model name")
		return
	}
	if req.Budget < 0 {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "negative budget %v", req.Budget)
		return
	}
	if len(req.Vectors) > 0 && req.Scenario != "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			"provide vectors or a scenario, not both")
		return
	}
	a, ok := s.reg.Get(req.Model)
	if !ok {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "unknown model %q", req.Model)
		return
	}
	var plan *harden.Plan
	var err error
	if len(req.Vectors) > 0 {
		plan, err = explicitPlan(a, req)
	} else {
		plan, err = scenarioPlan(a, req)
	}
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}

	s.metrics.hardenRequests.Inc()
	s.metrics.hardenSelected.Set(float64(len(plan.Selected)))
	s.metrics.hardenResidual.Set(plan.ResidualFFR)
	s.metrics.hardenSeconds.Observe(time.Since(start).Seconds())
	api.WriteJSON(w, http.StatusOK, hardenResponse(plan))
}

// explicitPlan plans over caller-supplied feature rows. Costs default to
// uniform when absent, making the budget a pure FF-count fraction.
func explicitPlan(a *persist.Artifact, req api.HardenRequest) (*harden.Plan, error) {
	scores, err := harden.Score(a, req.Vectors)
	if err != nil {
		return nil, err
	}
	costs := req.Costs
	if len(costs) == 0 {
		costs = make([]float64, len(scores))
		for i := range costs {
			costs[i] = 1
		}
	}
	var names []string
	if len(req.Names) > 0 {
		names = req.Names
	}
	cands, err := harden.Rank(scores, costs, names)
	if err != nil {
		return nil, err
	}
	plan, err := harden.NewPlan(cands, req.Budget)
	if err != nil {
		return nil, err
	}
	plan.Model = a.Name
	return plan, nil
}

// scenarioPlan materializes the request's scenario — or the artifact's
// training scenario when the request names none — and advises over it.
func scenarioPlan(a *persist.Artifact, req api.HardenRequest) (*harden.Plan, error) {
	scale := corpus.ScaleSmall
	if req.Scale != "" {
		var err error
		if scale, err = corpus.ParseScale(req.Scale); err != nil {
			return nil, err
		}
	}
	m, err := harden.Materialize(a, req.Scenario, scale, req.ScenarioSeed)
	switch {
	case errors.Is(err, harden.ErrNoScenarioTag):
		return nil, fmt.Errorf("model %q carries no scenario tag; pass vectors or a scenario", a.Name)
	case errors.Is(err, harden.ErrUntrainedCircuit):
		return nil, fmt.Errorf("%w; pass the training run's scale and scenario_seed", err)
	case err != nil:
		return nil, err
	}
	return harden.Advise(a, m, req.Budget)
}

// hardenResponse flattens a plan onto the wire shape.
func hardenResponse(p *harden.Plan) api.HardenResponse {
	resp := api.HardenResponse{
		Model:       p.Model,
		Circuit:     p.Circuit,
		Workload:    p.Workload,
		Budget:      p.Budget,
		TotalArea:   p.TotalArea,
		UsedArea:    p.UsedArea,
		BaseFFR:     p.BaseFFR,
		ResidualFFR: p.ResidualFFR,
		Selected:    wireCandidates(p.Selected),
		SelectedFFs: p.SelectedFFs(),
		Rest:        wireCandidates(p.Rest),
	}
	resp.Curve = make([]api.HardenBudgetPoint, len(p.Curve))
	for i, pt := range p.Curve {
		resp.Curve[i] = api.HardenBudgetPoint{
			Budget: pt.Budget, Area: pt.Area, FFs: pt.FFs, ResidualFFR: pt.ResidualFFR,
		}
	}
	return resp
}

func wireCandidates(cands []harden.Candidate) []api.HardenCandidate {
	out := make([]api.HardenCandidate, len(cands))
	for i, c := range cands {
		out[i] = api.HardenCandidate{
			FF: c.FF, Name: c.Name, Score: c.Score, Area: c.Area,
		}
	}
	return out
}
