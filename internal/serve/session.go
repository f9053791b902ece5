package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/sta"
)

// jobKind selects what a session worker does with a queued job.
type jobKind int

const (
	jobBuild jobKind = iota // cold-build the solver state (submit path)
	jobQuery                // answer a sizing query from warm state
	jobEdit                 // apply a netlist edit batch to warm state
)

// job is one unit of admitted work.  The handler goroutine that
// enqueued it waits on resp (buffered: the worker never blocks on a
// client that walked away).
type job struct {
	kind jobKind
	req  QueryRequest
	edit EditRequest     // jobEdit payload
	ctx  context.Context // request context (client disconnect)
	resp chan jobReply

	// Singleflight state, guarded by srv.mu until started is set (the
	// worker freezes the follower list when it picks the job up; after
	// that no attach is legal and the worker reads without the lock).
	key       string // canonical query body ("" for build jobs)
	started   bool
	followers []chan jobReply // coalesced identical requests
}

type jobReply struct {
	status int
	body   any
}

// session is one warm solving context.  The worker goroutine owns the
// core.Session exclusively — requests to the same session serialize
// through the queue, so the solver state never sees concurrent access;
// distinct sessions run concurrently up to the server's in-flight cap.
type session struct {
	id  string
	srv *Server
	src SubmitRequest // retained verbatim for quarantine rebuilds

	queue chan *job
	quit  chan struct{} // closed on delete/evict/replace
	done  chan struct{} // closed when the worker exits

	// inflight indexes queued (not yet started) query jobs by their
	// canonical body, guarded by srv.mu — the singleflight map an
	// identical concurrent query coalesces through.
	inflight map[string]*job

	// Worker-owned (no locking needed).
	core *core.Session
	dmin float64
	seq  int
	// eco is the session's editable netlist wrapper (owned by the
	// core.Session); history records every accepted state-mutating
	// batch — netlist edits AND sticky what-if weight batches, in
	// arrival order — so a quarantine rebuild replays the session's
	// full served history (the "deterministic given session history"
	// contract covers both; replaying only the edits, as this layer
	// once did, made a post-panic session silently diverge from a
	// never-quarantined twin whenever weights had been set).  snap,
	// when non-nil, is the netlist state an accepted structural batch
	// produced: the history prefix up to it is compacted away and
	// rebuilds start from the snapshot instead of the pristine source
	// (a structural rebuild resets sticky weights, so nothing before
	// the snapshot needs replay — see dag.NewEcoWithExtra's exactness
	// contract).
	eco     *dag.Eco
	history []historyEntry
	snap    *netSnapshot

	// Shared with the server, guarded by srv.mu.  The worker writes
	// gen and numGates under the lock (GET /v1/sessions/{id} reads them
	// concurrently) and reads them without it.
	gen       int
	numGates  int
	elem      *list.Element // LRU position
	memBytes  int64
	queries   int64
	editsDone int64
	queued    int
	// epoch counts admitted edit batches; it scopes the query
	// coalescing keys so a query admitted after an edit never rides a
	// twin queued before it (see Server.handleEdit).
	epoch       int
	busy        bool
	deleted     bool
	quarantined bool
}

// historyEntry is one accepted state-mutating request of the session's
// replayable history: a sticky what-if weight batch (gates/ws) or a
// netlist edit batch (edits).  Exactly one side is set.
type historyEntry struct {
	gates []int
	ws    []float64
	edits []dag.Edit
}

// netSnapshot captures the netlist state after an accepted structural
// batch: the edited circuit and its extra-load ledger.  Rebuilds start
// here instead of re-parsing the pristine source and replaying the
// whole history (the circuit is cloned on use — the snapshot itself is
// never handed to an Eco, which would own and mutate it).
type netSnapshot struct {
	c     *circuit.Circuit
	extra []float64
}

// buildCore constructs the problem and warm solver state from the
// retained submit request (or the compacted snapshot).  Called by the
// worker on the build job and again on every quarantine rebuild — each
// build starts from pristine state and replays the session's accepted
// weight and edit batches in order, so the rebuilt generation's state
// is the deterministic product of the session history.
func (s *session) buildCore() error {
	var eco *dag.Eco
	if s.snap != nil {
		var err error
		eco, err = dag.NewEcoWithExtra(s.snap.c.Clone(), s.srv.model, s.snap.extra)
		if err != nil {
			return err
		}
	} else {
		ckt, err := s.srv.buildCircuit(s.src)
		if err != nil {
			return err
		}
		if eco, err = dag.NewEco(ckt, s.srv.model); err != nil {
			return err
		}
	}
	p := eco.P
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return err
	}
	cs, err := core.NewEcoSession(eco, core.Options{
		TrustRegion:    s.srv.cfg.TrustRegion,
		EditConeBudget: s.srv.cfg.EditConeBudget,
		EditConeResize: s.srv.cfg.EditConeResize,
	})
	if err != nil {
		return err
	}
	// Replay the session's accepted history — weight batches and edit
	// batches, in arrival order.  Replay failures are impossible for
	// batches that validated once against the same history — treat one
	// as a build failure (fail loud, not with silently dropped state).
	for i, h := range s.history {
		var rerr error
		if h.edits != nil {
			_, rerr = cs.ApplyEdits(h.edits)
		} else {
			rerr = cs.SetAreaWeights(h.gates, h.ws)
		}
		if rerr != nil {
			cs.Close()
			return fmt.Errorf("history replay (batch %d): %w", i, rerr)
		}
	}
	s.core = cs
	s.eco = eco
	s.dmin = tm.CP
	s.seq = 0
	s.setNumGates(cs.NumSizable())
	return nil
}

// rebuildIfQuarantined cold-rebuilds a quarantined (or never-built)
// session before a query or edit lands on it: the rebuild replays the
// session history, and the new generation starts a fresh deterministic
// query sequence.  ok is false, with the reply to send, when the
// rebuild failed.
func (s *session) rebuildIfQuarantined() (rep jobReply, ok bool) {
	if s.core != nil && !s.getQuarantined() {
		return jobReply{}, true
	}
	s.shutdown()
	if err := s.buildCore(); err != nil {
		return jobReply{http.StatusInternalServerError, &ErrorBody{
			Code: CodeInternal, Message: "rebuild failed: " + err.Error(),
		}}, false
	}
	s.srv.mu.Lock()
	s.gen++
	s.quarantined = false
	s.srv.mu.Unlock()
	s.srv.rebuilds.Add(1)
	return jobReply{}, true
}

// stateBytes estimates the serve-layer session state that
// core.MemoryBytes cannot see: the replayable history ledger, the
// compaction snapshot, and the retained submit source.  Without it the
// history grows unbounded and invisibly to the LRU watermarks.
func (s *session) stateBytes() int64 {
	const (
		editBytes  = 96 // dag.Edit struct
		entryBytes = 96 // historyEntry + slice headers + growth slack
		gateBytes  = 96 // circuit.Gate + name + pins, amortized
	)
	b := int64(len(s.src.Bench)+len(s.src.Circuit)+len(s.src.ID)) + 4096
	for _, h := range s.history {
		b += entryBytes + int64(len(h.gates))*8 + int64(len(h.ws))*8
		b += int64(len(h.edits)) * editBytes
		for _, e := range h.edits {
			b += int64(len(e.Name)) + int64(len(e.Ins))*16
		}
	}
	if s.snap != nil {
		b += int64(s.snap.c.NumGates())*gateBytes + int64(len(s.snap.extra))*8
	}
	return b
}

// run is the worker loop.  It exits when the session is deleted,
// evicted, or the server drains; on every exit path it answers all
// still-queued jobs and closes the solver state.
func (s *session) run() {
	defer s.srv.wg.Done()
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.drainQueue(http.StatusNotFound, CodeNotFound, "session deleted")
			s.shutdown()
			return
		case <-s.srv.drainCh:
			// Finish everything already admitted — the drain deadline
			// cancels the base context, so long solves come back fast
			// with partial answers — then exit.
			for {
				select {
				case j := <-s.queue:
					s.serve(j)
				default:
					s.shutdown()
					return
				}
			}
		case j := <-s.queue:
			s.serve(j)
		}
	}
}

func (s *session) shutdown() {
	if s.core != nil {
		s.core.Close()
		s.core = nil
	}
}

// drainQueue answers every queued job (and its coalesced followers)
// with a terminal error.
func (s *session) drainQueue(status int, code, msg string) {
	for {
		select {
		case j := <-s.queue:
			s.claim(j)
			rep := jobReply{status, &ErrorBody{Code: code, Message: msg}}
			j.resp <- rep
			for _, ch := range j.followers {
				ch <- rep
			}
			s.srv.jobDone(s, false)
		default:
			return
		}
	}
}

// claim marks a dequeued job started under srv.mu, freezing its
// follower list (no further coalesced attach) and dropping it from the
// singleflight index.
func (s *session) claim(j *job) {
	s.srv.mu.Lock()
	j.started = true
	if j.key != "" && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.srv.mu.Unlock()
}

// serve runs one job under the global in-flight cap and the panic
// barrier, then reports completion to the server (memory accounting,
// watermark eviction, pending bookkeeping).
func (s *session) serve(j *job) {
	s.srv.runSem <- struct{}{}
	s.srv.mu.Lock()
	s.busy = true
	s.queued--
	s.srv.mu.Unlock()
	s.claim(j)

	rep := s.handle(j)
	j.resp <- rep
	// Fan the answer out to coalesced identical requests (list frozen
	// when started was set above).  Each follower gets its own struct
	// so the Coalesced mark never mutates the primary's body.
	for _, ch := range j.followers {
		if qr, ok := rep.body.(*QueryResponse); ok {
			cp := *qr
			cp.Coalesced = true
			ch <- jobReply{rep.status, &cp}
		} else {
			ch <- rep
		}
	}

	<-s.srv.runSem
	s.srv.jobDone(s, true)
}

// handle dispatches one job.  The deferred recover is the per-session
// panic barrier: a crash anywhere in the solve quarantines this
// session (cold rebuild on its next query) and answers 500 — it never
// takes the process down or poisons other sessions.
func (s *session) handle(j *job) (rep jobReply) {
	defer func() {
		if r := recover(); r != nil {
			s.setQuarantined(true)
			rep = jobReply{http.StatusInternalServerError, &ErrorBody{
				Code:    CodeEngineFailed,
				Message: fmt.Sprintf("solve crashed (session quarantined, will rebuild cold): %v", r),
			}}
		}
	}()
	switch j.kind {
	case jobBuild:
		return s.handleBuild()
	case jobEdit:
		return s.handleEdit(j)
	default:
		return s.handleQuery(j)
	}
}

func (s *session) handleBuild() jobReply {
	if err := s.buildCore(); err != nil {
		// Unknown circuit names and parse errors: caller mistakes.
		return jobReply{http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
	}
	s.srv.accountMem(s)
	return jobReply{http.StatusOK, &SubmitResponse{
		ID:         s.id,
		Generation: s.gen,
		NumGates:   s.numGates,
		MemBytes:   s.core.MemoryBytes(),
		MinDelayPS: s.dmin,
	}}
}

func (s *session) handleQuery(j *job) jobReply {
	// A client that left before its query started gets no solve: nobody
	// reads the answer, and running it would still take a seq and
	// consume the armed cone, so the next live answer would differ from
	// a history without the abandoned request.  Coalesced followers
	// still wait on the answer, so a job with any runs as usual.
	if j.ctx.Err() != nil && len(j.followers) == 0 {
		return jobReply{http.StatusGatewayTimeout, &ErrorBody{Code: CodeCanceled, Message: "client left before the query started"}}
	}
	if rep, ok := s.rebuildIfQuarantined(); !ok {
		return rep
	}

	req := &j.req
	if len(req.AreaWeights) > 0 {
		// Atomic batch: the whole weight list is validated before any
		// entry is applied, so a rejected query leaves the session
		// bit-identical to never having received it (a half-applied
		// sticky batch would silently skew every later answer).
		gates := make([]int, len(req.AreaWeights))
		ws := make([]float64, len(req.AreaWeights))
		for i, aw := range req.AreaWeights {
			gates[i], ws[i] = aw.Gate, aw.Weight
		}
		if err := s.core.SetAreaWeights(gates, ws); err != nil {
			return jobReply{http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
		}
		// Accepted sticky weights join the replayable history — a
		// quarantine rebuild must re-apply them after the edit replay
		// or the rebuilt generation diverges from a never-quarantined
		// twin.  Recorded even if the solve below fails: stickiness is
		// not conditional on the query's outcome.
		s.history = append(s.history, historyEntry{gates: gates, ws: ws})
	}

	// Cancellation funnel: the solve stops on whichever fires first —
	// client disconnect (request context), server drain deadline (base
	// context), or the per-request wall-clock budget (inside Resize).
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	stop := context.AfterFunc(s.srv.baseCtx, cancel)
	defer stop()

	warm := s.seq > 0
	s.seq++
	res, err := s.core.Resize(ctx, req.TargetPS, core.Budgets{
		Budget:         time.Duration(req.BudgetMS) * time.Millisecond,
		FlowWorkBudget: req.FlowWorkBudget,
	})
	s.srv.accountMem(s)

	// The /stats provenance counters are sums over the Results handed
	// out, so they always agree with what clients saw.
	resp := &QueryResponse{ID: s.id, Generation: s.gen, Seq: s.seq, Warm: warm}
	if res != nil {
		resp.Area = res.Area
		resp.CPPS = res.CP
		resp.Iterations = res.Iterations
		resp.Partial = res.Partial
		resp.Seed = res.Seed
		resp.SeedFallback = res.SeedFallback
		resp.FarSeed = res.FarSeed
		resp.LibrarySeed = res.LibrarySeed
		resp.ConeGates = res.ConeGates
		resp.ConeFallback = res.ConeFallback
		switch res.Seed {
		case core.SeedWarm:
			s.srv.seeded.Add(1)
			if res.FarSeed {
				s.srv.farSeeded.Add(1)
			}
			if res.LibrarySeed {
				s.srv.librarySeeded.Add(1)
			}
		case core.SeedCone:
			s.srv.coneResizes.Add(1)
		}
		if res.SeedFallback {
			s.srv.seedFallbacks.Add(1)
			if res.FarSeed {
				s.srv.farFallbacks.Add(1)
			}
		}
		if res.ConeFallback {
			s.srv.coneFallbacks.Add(1)
		}
		if req.WantSizes {
			resp.Sizes = res.X
		}
	}
	if err == nil {
		return jobReply{http.StatusOK, resp}
	}

	code, status := codeForSolveErr(err)
	if code == CodeEngineFailed {
		// The flow solve died (mcmf retries nothing): the warm state is
		// no longer trustworthy.  Quarantine; the next query rebuilds
		// cold from the session's ledger.
		s.setQuarantined(true)
		s.srv.quarantines.Add(1)
	}
	if res != nil && res.Partial {
		// Best-so-far partial answer: 200 with the error attached,
		// mirroring MinflotransitCtx's (sizing, err) contract.
		resp.Error = &ErrorBody{Code: code, Message: err.Error()}
		return jobReply{http.StatusOK, resp}
	}
	// No partial to soften it: a bare error envelope (the only body
	// shape clients see on non-2xx statuses).
	return jobReply{status, &ErrorBody{Code: code, Message: err.Error()}}
}

// handleEdit applies one admitted edit batch to the warm state.  A
// quarantined (or never-built) session rebuilds cold — replaying the
// prior history — before the new batch lands on top.
func (s *session) handleEdit(j *job) jobReply {
	if rep, ok := s.rebuildIfQuarantined(); !ok {
		return rep
	}

	edits, err := s.translateEdits(&j.edit)
	if err != nil {
		return jobReply{http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
	}
	rep, err := s.core.ApplyEdits(edits)
	if err != nil {
		// Rejected batches are atomic: the session is bit-identical to
		// never having received this request, so nothing to log.
		return jobReply{http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
	}
	// The accepted batch joins the session history; a later quarantine
	// rebuild replays it (without re-counting it in the server stats).
	// A structural batch compacts instead: the rebuild it just ran
	// resets sticky weights and dag guarantees the rebuilt netlist is
	// bit-reproducible from (circuit, extra-load) alone, so the whole
	// prefix — this batch included — collapses into one snapshot.
	if rep.Structural {
		s.snap = &netSnapshot{
			c:     s.eco.C.Clone(),
			extra: append([]float64(nil), s.eco.Extra...),
		}
		s.history = s.history[:0]
	} else {
		s.history = append(s.history, historyEntry{edits: edits})
	}
	if rep.GateSetChanged {
		s.setNumGates(s.core.NumSizable())
	}
	s.srv.edits.Add(1)
	if rep.Fallback {
		s.srv.editFallbacks.Add(1)
	}
	s.srv.mu.Lock()
	s.editsDone++
	s.srv.mu.Unlock()
	s.srv.accountMem(s)
	return jobReply{http.StatusOK, &EditResponse{
		ID:                s.id,
		Generation:        s.gen,
		Structural:        rep.Structural,
		Rebuilt:           rep.Rebuilt,
		Fallback:          rep.Fallback,
		SeedKept:          rep.SeedKept,
		GateSetChanged:    rep.GateSetChanged,
		NumGates:          s.core.NumSizable(),
		ConeGates:         rep.ConeGates,
		ConeFrac:          rep.ConeFrac,
		ChangedRows:       rep.ChangedRows,
		ConeResizePending: rep.ConeResizePending,
		CPPS:              rep.CP,
		MemBytes:          s.core.MemoryBytes(),
	}}
}

// translateEdits maps the wire batch onto typed dag edits.  Name
// resolution — cell names, driver signals — happens here against the
// session's current netlist; index, arity, cycle and liveness
// validation is core.ApplyEdits's job (and is atomic there).
//
// Gate-set batches need the resolution to track the batch: an "add" is
// referenceable by name before the gate exists in the resident
// netlist, and a "remove" shifts every higher gate index down by one
// for the rest of the batch — so driver names resolve against a
// simulated index space, not the pre-batch one.
func (s *session) translateEdits(req *EditRequest) ([]dag.Edit, error) {
	// gateAt maps current gate names to their index as of this point in
	// the batch; built lazily, only batches containing adds or removes
	// pay for it.
	var gateAt map[string]int
	simulated := func() {
		if gateAt != nil {
			return
		}
		gateAt = make(map[string]int, s.eco.C.NumGates())
		for gi := range s.eco.C.Gates {
			gateAt[s.eco.C.Gates[gi].Name] = gi
		}
	}
	numGates := s.eco.C.NumGates()
	lookup := func(name string) (circuit.Ref, bool) {
		if gateAt != nil {
			if gi, ok := gateAt[name]; ok {
				return circuit.GateRef(gi), true
			}
			// Not a live gate: only a PI resolution is still valid (a
			// pre-batch gate ref would carry a stale index).
			if ref, ok := s.eco.C.Lookup(name); ok && ref.Kind == circuit.RefPI {
				return ref, true
			}
			return circuit.Ref{}, false
		}
		return s.eco.C.Lookup(name)
	}
	out := make([]dag.Edit, len(req.Edits))
	for i, e := range req.Edits {
		d := dag.Edit{Gate: e.Gate}
		switch e.Op {
		case "retype":
			k, ok := cell.ByName(e.Cell)
			if !ok {
				return nil, fmt.Errorf("edit %d: unknown cell %q", i, e.Cell)
			}
			d.Op, d.Cell = dag.EditRetype, k
		case "load":
			d.Op, d.LoadFF = dag.EditLoad, e.LoadFF
		case "rewire":
			ref, ok := lookup(e.Driver)
			if !ok {
				return nil, fmt.Errorf("edit %d: unknown driver signal %q", i, e.Driver)
			}
			d.Op, d.Pin, d.Driver = dag.EditRewire, e.Pin, ref
		case "add":
			simulated()
			k, ok := cell.ByName(e.Cell)
			if !ok {
				return nil, fmt.Errorf("edit %d: unknown cell %q", i, e.Cell)
			}
			ins := make([]circuit.Ref, len(e.Inputs))
			for pin, nm := range e.Inputs {
				ref, ok := lookup(nm)
				if !ok {
					return nil, fmt.Errorf("edit %d: add %q pin %d: unknown driver signal %q", i, e.Name, pin, nm)
				}
				ins[pin] = ref
			}
			d.Op, d.Cell, d.Name, d.Ins, d.PO = dag.EditAdd, k, e.Name, ins, e.PO
			gateAt[e.Name] = numGates
			numGates++
		case "remove":
			simulated()
			if e.Gate < 0 || e.Gate >= numGates {
				return nil, fmt.Errorf("edit %d: remove gate %d out of range [0,%d)", i, e.Gate, numGates)
			}
			d.Op = dag.EditRemove
			for nm, gi := range gateAt {
				switch {
				case gi == e.Gate:
					delete(gateAt, nm)
				case gi > e.Gate:
					gateAt[nm] = gi - 1
				}
			}
			numGates--
		default:
			return nil, fmt.Errorf("edit %d: unknown op %q (want retype, load, rewire, add, or remove)", i, e.Op)
		}
		out[i] = d
	}
	return out, nil
}

func (s *session) setNumGates(n int) {
	s.srv.mu.Lock()
	s.numGates = n
	s.srv.mu.Unlock()
}

func (s *session) setQuarantined(v bool) {
	s.srv.mu.Lock()
	s.quarantined = v
	s.srv.mu.Unlock()
}

func (s *session) getQuarantined() bool {
	s.srv.mu.Lock()
	defer s.srv.mu.Unlock()
	return s.quarantined
}

// codeForSolveErr maps the core error taxonomy onto wire codes and the
// status used when no partial result softens the failure.
func codeForSolveErr(err error) (code string, status int) {
	switch {
	case errors.Is(err, core.ErrCanceled):
		return CodeCanceled, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrBudgetExhausted):
		return CodeBudgetExhausted, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrEngineFailed):
		return CodeEngineFailed, http.StatusInternalServerError
	case errors.Is(err, core.ErrInfeasible):
		return CodeInfeasible, http.StatusUnprocessableEntity
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}
