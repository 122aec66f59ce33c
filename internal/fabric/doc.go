// Package fabric is the distributed campaign runtime: a coordinator that
// leases shard chunks of a fault-injection plan to remote workers over the
// /v1/fabric HTTP protocol, and the worker loop that executes them.
//
// The design leans entirely on determinism. A campaign is identified by an
// api.CampaignSpec — corpus scenario, scale, seeds, chunk geometry, fault
// model — and every node that materializes the spec derives the same
// netlist, golden trace, injection plan and chunk splitting (one
// fault.Plan, prepared once per node). Workers therefore never receive jobs
// over the wire, only chunk indices; they simulate the chunks locally
// (fault.Plan.RunChunks — the same chunk executor a single-node campaign
// runs, every lease on the one prepared plan) and post back per-batch
// failure masks. The coordinator hands them to the same fault.Ledger a
// single-node run keeps — one matcher for a resumed checkpoint, one set of
// per-chunk checks, one flush cadence, one fold — so a 2-worker distributed
// campaign is bit-identical — checkpoint-fingerprint-equal — to the
// single-node run of the same spec, a property pinned by this package's
// tests on top of the PR 4 equivalence suite.
//
// Fault tolerance is lease-based: a granted chunk must be heartbeated
// within the lease TTL or it returns to the pending queue (lease expiry —
// the worker-crash path). When the pending queue drains before the
// campaign completes, lease requests are served by work-stealing
// outstanding chunks from their current holders; whichever copy finishes
// first wins, the second completion is verified identical and dropped as
// a duplicate. Lease churn, expirations, steals and completions are all
// exported as /metrics counters. A coordinator that cannot flush its
// checkpoint has failed the campaign: it answers every later lease,
// heartbeat and completion with 500 internal naming the cause, and its
// workers exit with that error.
package fabric
