// Package harden is the selective-mitigation advisor: it turns a trained
// FFR model into a verified hardening decision, closing the loop the paper
// opens (estimate the failure rate) with the step its references [3]-[5]
// motivate (decide what to protect).
//
// The flow is estimate → rank → plan → rewrite → verify:
//
//   - Score every flip-flop's failure criticality by model prediction over
//     the per-FF feature rows of a materialized scenario — no new
//     injections; that is the point of having the model.
//   - Rank flip-flops by score, most critical first, ties by index.
//   - Emit a Plan: the ordered TMR set that fits a user-supplied area
//     budget (per-FF costs from gate areas in internal/netlist), with the
//     predicted residual FFR at every budget point on the curve.
//   - Verify the recommendation: two campaigns of the fabric's campaign
//     description (fabric.BuildCampaign) run on the local executor — the
//     spec hardened with the plan's selection, which is the campaign
//     ffr coord -harden distributes, and the spec as given for the
//     baseline — and the result reports measured vs. predicted residual
//     FFR. The advisor's calibration is itself a tested claim.
//
// FFR here is the sum of per-flip-flop FDR values: the expected number of
// functional failures per one SEU in every flip-flop. It is additive, so
// hardening a flip-flop removes exactly its term, which is what makes the
// predicted residual curve a simple running difference.
//
// Everything is deterministic in its inputs (artifact, scenario, scale,
// seeds, budget), so plans are reproducible and the verify campaign can
// resume from its checkpoint bit-identically.
package harden
