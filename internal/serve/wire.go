// Wire types for the minflod HTTP/JSON protocol.
//
// Every error response is an ErrorBody envelope; overload (429) and
// drain (503) responses carry a Retry-After header with a whole-second
// hint.  A query that aborts mid-run but still has a best-so-far
// sizing answers 200 with Result.Partial set AND Error describing why
// it stopped — callers must treat (result, error both present) as
// "partial answer", mirroring the library's MinflotransitCtx contract.
package serve

// Error codes carried in ErrorBody.Code.  They refine the HTTP status:
// a client switching on behavior should use the code, not the status.
const (
	// CodeBadRequest: malformed JSON, unknown circuit, bad target.  400.
	CodeBadRequest = "bad_request"
	// CodeNotFound: no session with that id (never created, deleted,
	// or evicted under memory pressure — re-submit to rebuild).  404.
	CodeNotFound = "not_found"
	// CodeOverloaded: the per-session queue or the global pending cap
	// is full.  429 with Retry-After.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and admits no new
	// work.  503 with Retry-After.
	CodeDraining = "draining"
	// CodeInfeasible: no sizing can meet the delay target.  422.
	CodeInfeasible = "infeasible"
	// CodeCanceled: the run was cut short by cancellation (client
	// disconnect or drain deadline).  200 when a partial sizing
	// exists, 504 otherwise.
	CodeCanceled = "canceled"
	// CodeBudgetExhausted: the per-request wall-clock or flow-work
	// budget ran out.  200 when a partial sizing exists, 504 otherwise.
	CodeBudgetExhausted = "budget_exhausted"
	// CodeEngineFailed: a flow solve crashed; the session is
	// quarantined and will be rebuilt cold on its next query.  200
	// with the best-so-far sizing when one exists, 500 otherwise.
	CodeEngineFailed = "engine_failed"
	// CodeIterationFailed: a D/W iteration failed outside the flow
	// solver (a timing, sensitivity or W-phase step, or a flow error
	// outside the abort taxonomy); the session is quarantined like on
	// engine_failed.  200 with the best-so-far sizing when one exists,
	// 500 otherwise.
	CodeIterationFailed = "iteration_failed"
	// CodeInternal: any other server-side failure.  500.
	CodeInternal = "internal"
)

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// SubmitRequest creates (or replaces) a session from a netlist.
// Exactly one of Circuit or Bench must be set.
type SubmitRequest struct {
	// ID names the session; empty lets the server assign one.
	ID string `json:"id,omitempty"`
	// Circuit is a Table 1 benchmark name (adder32, c432, mult8, ...).
	Circuit string `json:"circuit,omitempty"`
	// Bench is an ISCAS85 .bench netlist, inline.
	Bench string `json:"bench,omitempty"`
	// Name labels a Bench netlist (diagnostics only).
	Name string `json:"name,omitempty"`
	// The retired keys "parallelism" (a per-session worker budget) and
	// "flow_engine" (a D-phase backend name) are accepted and ignored:
	// decoding skips unknown fields, every solve is serial, and every
	// D-phase runs the one flow algorithm.
}

// SubmitResponse describes the created session.
type SubmitResponse struct {
	ID string `json:"id"`
	// Generation counts cold builds of this session's solver state; it
	// starts at 0 and increments on every quarantine rebuild.  Answers
	// are a deterministic function of the query sequence within one
	// generation.
	Generation int   `json:"generation"`
	NumGates   int   `json:"num_gates"`
	MemBytes   int64 `json:"mem_bytes"`
	// MinDelayPS is Dmin, the critical path with every gate at minimum
	// size — targets below this are infeasible.
	MinDelayPS float64 `json:"min_delay_ps"`
}

// AreaWeight is a what-if cost override applied before the query runs
// and left in place for the rest of the session (resend with weight 1
// to undo).
type AreaWeight struct {
	Gate   int     `json:"gate"`
	Weight float64 `json:"weight"`
}

// QueryRequest asks the warm session for a sizing at a new target.
type QueryRequest struct {
	// TargetPS is the delay target in picoseconds.
	TargetPS float64 `json:"target_ps"`
	// BudgetMS, when positive, bounds this query's wall clock in
	// milliseconds; exceeding it returns the best-so-far partial.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// FlowWorkBudget, when positive, caps this query's D-phase flow
	// work in mcmf poll operations.
	FlowWorkBudget int64 `json:"flow_work_budget,omitempty"`
	// AreaWeights applies sticky what-if cost overrides first.
	AreaWeights []AreaWeight `json:"area_weights,omitempty"`
	// WantSizes includes the per-gate sizes in the response (they can
	// dwarf the rest of the payload on large circuits).
	WantSizes bool `json:"want_sizes,omitempty"`
}

// QueryResponse is the sizing answer.  When Error is non-nil the run
// stopped early; Partial reports whether Area/CP/Sizes still hold the
// best sizing reached before the stop.
type QueryResponse struct {
	ID         string    `json:"id"`
	Generation int       `json:"generation"`
	Seq        int       `json:"seq"` // 1-based query index within the generation
	Area       float64   `json:"area"`
	CPPS       float64   `json:"cp_ps"`
	Iterations int       `json:"iterations"`
	Partial    bool      `json:"partial,omitempty"`
	Sizes      []float64 `json:"sizes,omitempty"`
	// Warm reports whether the answer came from warm solver state
	// (false on the first query of a generation).
	Warm bool `json:"warm"`
	// Seed is the solve's start-point provenance: "tilos" for the cold
	// path, "warm" for a trust-region-seeded resize answered from the
	// session's previous converged sizing (see the -trust-region flag
	// and core.Options.TrustRegion).
	Seed string `json:"seed,omitempty"`
	// SeedFallback marks a cold answer whose trust-region seed was
	// attempted and abandoned (its TILOS repair could not reach the
	// target).
	SeedFallback bool `json:"seed_fallback,omitempty"`
	// FarSeed marks a trust-region seed attempt whose target moved
	// beyond the trust region (a far jump): on a "warm" answer it ran
	// the far-jump schedule, on a seed_fallback answer it fell back.
	FarSeed bool `json:"far_seed,omitempty"`
	// LibrarySeed marks a trust-region seed attempt that started from
	// the session's library of earlier converged answers: the target
	// moved beyond the trust region of the previous answer's but lay
	// within that of an earlier one's, so the solve ran as a refinement
	// from it.  Any accepted weight or edit batch empties the library.
	LibrarySeed bool       `json:"library_seed,omitempty"`
	Error       *ErrorBody `json:"error,omitempty"`
}

// EditOp is one typed netlist edit of an edit batch.
type EditOp struct {
	// Op selects the edit: "retype" (cell/drive-strength swap of equal
	// arity), "load" (set the extra fixed output load), "rewire"
	// (reconnect one input pin to a new driver signal), "add"
	// (instantiate a new gate), or "remove" (delete a dead gate).
	Op string `json:"op"`
	// Gate indexes the edited gate (the sizing-vertex index reported by
	// sizes/weights APIs).  Ignored for "add".
	Gate int `json:"gate"`
	// Cell names the library cell for "retype" and "add" (e.g. "NAND2",
	// "INV"); for "retype" it must have the gate's current input count.
	Cell string `json:"cell,omitempty"`
	// LoadFF is the new extra fixed output load in fF for "load".  It
	// is absolute state, not a delta — resend 0 to restore the pristine
	// load.
	LoadFF float64 `json:"load_ff,omitempty"`
	// Pin and Driver identify the rewired input for "rewire": the pin
	// index and the new driver signal's name (a PI or gate output).
	Pin    int    `json:"pin,omitempty"`
	Driver string `json:"driver,omitempty"`
	// Name, Inputs and PO define an added gate for "add": its (unique)
	// output signal name, the driver signal names feeding its pins, and
	// whether the output is a primary output.  Later edits in the same
	// batch may reference the new gate by Name or by its index (the
	// gate count at that point in the batch).  "remove" demands a dead
	// gate — detach its readers first, in the same batch; gate indices
	// above it shift down by one for the rest of the batch.
	Name   string   `json:"name,omitempty"`
	Inputs []string `json:"inputs,omitempty"`
	PO     bool     `json:"po,omitempty"`
}

// EditRequest applies a batch of netlist edits to a warm session
// atomically: the whole batch is validated first, and a rejected batch
// (400) leaves the session bit-identical to never having received it.
type EditRequest struct {
	Edits []EditOp `json:"edits"`
}

// EditResponse reports what an accepted edit batch invalidated.
type EditResponse struct {
	ID         string `json:"id"`
	Generation int    `json:"generation"`
	// Structural marks a batch containing a rewire (the timing DAG
	// changed); Rebuilt marks batches that rebuilt the D-phase solver
	// state (every structural batch, plus cone-budget fallbacks).
	Structural bool `json:"structural"`
	Rebuilt    bool `json:"rebuilt"`
	// Fallback marks a batch whose timing cone exceeded the
	// -edit-cone-budget fraction: the warm seed was dropped and the
	// next query runs the cold path.  SeedKept is the complement view —
	// whether the trust-region seed survived the batch.
	Fallback bool `json:"fallback,omitempty"`
	SeedKept bool `json:"seed_kept"`
	// GateSetChanged marks a batch containing adds or removes: gate
	// indices were remapped, resident sizes and the warm seed are void,
	// and NumGates reports the new gate count.
	GateSetChanged bool `json:"gate_set_changed,omitempty"`
	NumGates       int  `json:"num_gates"`
	// ConeGates / ConeFrac measure the forward timing cone of the edit
	// (the gates whose arrivals can move); ChangedRows counts the delay
	// rows recomputed.
	ConeGates   int     `json:"cone_gates"`
	ConeFrac    float64 `json:"cone_frac"`
	ChangedRows int     `json:"changed_rows"`
	// Deprecated: ConeResizePending no longer arms anything; the
	// cone-local re-size is gone.  It reads !structural && seed_kept
	// (core.EditReport.ConeResizePending) because cmd/minflobench picks
	// serve_eco's fast-path samples by it.
	ConeResizePending bool `json:"cone_resize_pending,omitempty"`
	// CPPS is the post-edit critical path at the session's current
	// sizes (previous converged answer, or minimum sizes).
	CPPS     float64 `json:"cp_ps"`
	MemBytes int64   `json:"mem_bytes"`
}

// SessionInfo is the GET /v1/sessions/{id} body.
type SessionInfo struct {
	ID          string `json:"id"`
	Generation  int    `json:"generation"`
	NumGates    int    `json:"num_gates"`
	MemBytes    int64  `json:"mem_bytes"`
	Queries     int64  `json:"queries"`
	Edits       int64  `json:"edits"`
	Queued      int    `json:"queued"`
	Quarantined bool   `json:"quarantined"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Sessions    int   `json:"sessions"`
	MemBytes    int64 `json:"mem_bytes"`
	MemHigh     int64 `json:"mem_high_bytes"`
	InFlight    int   `json:"in_flight"`
	Pending     int64 `json:"pending"`
	Queries     int64 `json:"queries_total"`
	Rejected    int64 `json:"rejected_total"`
	Evictions   int64 `json:"evictions_total"`
	Quarantines int64 `json:"quarantines_total"`
	Rebuilds    int64 `json:"rebuilds_total"`
	// Seeded / SeedFallbacks count trust-region warm-seeded answers
	// and abandoned seed attempts across all sessions; FarSeeded /
	// FarFallbacks count the far jumps among them (answers carrying
	// far_seed), LibrarySeeded the seeded answers started from a
	// session's library of earlier converged answers (library_seed).
	Seeded        int64 `json:"seeded_total"`
	SeedFallbacks int64 `json:"seed_fallbacks_total"`
	FarSeeded     int64 `json:"far_seeded_total"`
	FarFallbacks  int64 `json:"far_seed_fallbacks_total"`
	LibrarySeeded int64 `json:"library_seeded_total"`
	// Deprecated: Coalesced always reads 0: every admitted query runs
	// as its own job.  The field stays only because cmd/minflobench
	// reads it.
	Coalesced int64 `json:"coalesced_total"`
	// Edits counts accepted edit batches; EditFallbacks those whose
	// timing cone exceeded the budget and dropped the warm seed.
	Edits         int64 `json:"edits_total"`
	EditFallbacks int64 `json:"edit_fallbacks_total"`
	Draining      bool  `json:"draining"`
}
