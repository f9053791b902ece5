// Package serve is minflod: a hardened HTTP/JSON daemon that keeps
// sizing sessions warm.  A client submits a netlist once (POST
// /v1/sessions), then streams queries against it (POST
// /v1/sessions/{id}/query) — new delay targets, what-if cost changes,
// re-sizes — answered from warm solver state: the flow network is
// built once per session generation and every later query is served by
// incremental re-flow (mcmf ResolveChanged) instead of a cold solve.
//
// Robustness machinery, in the order a request meets it:
//
//   - Admission control: a global pending-work cap and bounded
//     per-session queues.  Either full → 429 with Retry-After; the
//     server never grows an unbounded backlog.
//   - Serialization: each session has one worker goroutine owning its
//     solver state; same-session requests serialize, distinct sessions
//     run concurrently under a global in-flight cap.
//   - Budgets: per-request wall-clock and flow-work budgets funnel
//     into the PR-6 abort machinery; an exhausted budget returns the
//     best-so-far sizing marked partial.
//   - Memory: every session's footprint is estimated after each query
//     (core.Session.MemoryBytes); crossing the high watermark evicts
//     idle sessions in LRU order until under the low watermark.
//     Evicted ids answer 404 — re-submit to rebuild.
//   - Panic barrier: a crash inside a solve quarantines that session
//     and answers 500; the next query rebuilds it cold (a fresh
//     generation).  The process stays up and other sessions are
//     untouched.
//   - Graceful shutdown: Shutdown stops admitting (readyz → 503),
//     lets in-flight and queued work finish, and cancels the base
//     context at the drain deadline so stragglers come back fast with
//     partial answers.
//
// Performance machinery on top of that:
//
//   - Trust-region warm seeding (Config.TrustRegion, minflod
//     -trust-region, default 0.05): a query whose area weights moved
//     at most δ relative since the session's previous clean answer
//     starts from that converged sizing instead of a TILOS re-seed,
//     however far its target moved.  A target within δ is a refinement
//     on a short endgame schedule; one beyond δ is a far jump
//     ("far_seed") on the cold window schedule.  The response's "seed"
//     field reports which path answered ("warm", "tilos", or "cone" for
//     a cone-local re-size after an edit) and "seed_fallback" flags an
//     attempted seed that fell back; /stats counts far jumps answered
//     warm (far_seeded_total) and fallen back (far_seed_fallbacks_total).
//     Each session also keeps a small library of its earlier converged
//     answers (the least recently used is evicted when it is full): a
//     jump back within δ of one of them is a refinement from it ("library_seed", counted in
//     library_seeded_total) instead of a far jump.  Any accepted weight
//     or edit batch empties the library, and a rebuilt session starts
//     with an empty one.  Zero restarts every query from TILOS.
//   - Singleflight coalescing: identical concurrent queries (same
//     canonicalized body) against one session are solved once; the
//     followers receive the same answer marked "coalesced": true and
//     bypass the pending cap.
//
// Every solve is serial and runs the one D-phase flow algorithm:
// throughput comes from distinct sessions running concurrently.  A
// submit body that still carries the retired "parallelism" or
// "flow_engine" field is accepted and the field ignored (JSON decoding
// skips unknown fields); neither the submit response nor the session
// info reports either.
//
// Determinism contract: within one session generation (between cold
// builds), answers are a deterministic function of the query sequence
// — a serial twin replaying the same sequence answers bit-identically.
// Trust-region seeding keeps that contract (the seeding decision and
// the seed itself are functions of the query history, never wall
// time) but renegotiates the cross-session one: a seeded answer may
// drift boundedly from what a fresh session would return for the same
// single query.  See core.Session's package documentation for the
// drift bound.
package serve

import (
	"bytes"
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minflo"
	"minflo/internal/delay"
	"minflo/internal/tech"
)

// Config parameterizes a Server.  The zero value serves with safe
// defaults (1 GiB memory watermark).
type Config struct {
	// Engine is ignored: every session's D-phase runs the one flow
	// algorithm.
	//
	// Deprecated: kept only so cmd/minflobench, its one remaining user,
	// still compiles; it goes with that benchmark's replica.
	Engine string
	// MaxInFlight caps concurrently executing solves (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxPending caps globally admitted-but-unfinished jobs; beyond it
	// requests get 429 (default 64).
	MaxPending int
	// QueueDepth bounds each session's request queue; beyond it
	// requests get 429 (default 8).
	QueueDepth int
	// MemHighBytes is the eviction trigger (default 1 GiB); when the
	// summed session footprint crosses it, idle sessions are evicted
	// LRU-first until under MemLowBytes (default 3/4 of high).
	MemHighBytes int64
	MemLowBytes  int64
	// DrainTimeout bounds Shutdown when its context has no deadline
	// (default 5s).
	DrainTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 (default 1s).
	RetryAfter time.Duration
	// TrustRegion enables trust-region warm seeding on every session
	// (core.Options.TrustRegion): a query whose area weights moved at
	// most this relative amount since the session's previous clean
	// answer is solved from that answer instead of a TILOS restart.  A
	// target within it is a refinement, one beyond it a far jump with
	// the cold path's window schedule and iteration cap, unless it lies
	// within it of one of the session's earlier converged answers (its
	// library, emptied by any accepted weight or edit batch): then it is
	// a refinement from that answer.  0 (the default) keeps the
	// per-query cold-seed contract; the daemon enables it with
	// -trust-region.
	TrustRegion float64
	// EditConeBudget bounds how much of a circuit an edit batch (POST
	// /v1/sessions/{id}/edit) may invalidate while keeping the warm
	// seed: when the edit's forward timing cone exceeds this fraction
	// of the gates, the session drops its trust-region seed and
	// rebuilds the solver scratch cold (counted in
	// edit_fallbacks_total).  0 uses the core default (0.25); negative
	// disables the fallback.
	EditConeBudget float64
	// EditConeResize enables cone-local re-sizing on every session
	// (core.Options.EditConeResize, minflod -edit-cone-resize): a query
	// inside the trust region that follows a value-only edit batch is
	// answered from a cone-scoped subproblem against frozen boundary
	// arrivals instead of the full netlist; reconciliation re-times the
	// whole graph and falls back to the full warm path when the frozen
	// boundary lied (cone_fallbacks_total).  Requires TrustRegion > 0 to
	// have any effect.
	EditConeResize bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MemHighBytes <= 0 {
		c.MemHighBytes = 1 << 30
	}
	if c.MemLowBytes <= 0 || c.MemLowBytes > c.MemHighBytes {
		c.MemLowBytes = c.MemHighBytes / 4 * 3
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the minflod state: the warm-session cache plus every
// admission/accounting counter.  Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	model *delay.Model

	baseCtx    context.Context // canceled at the drain deadline
	baseCancel context.CancelFunc
	drainCh    chan struct{} // closed when Shutdown begins
	runSem     chan struct{} // global in-flight execution slots
	wg         sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
	lru      *list.List // front = most recently used
	memBytes int64
	pending  int
	draining bool
	nextID   uint64

	queries       atomic.Int64
	rejected      atomic.Int64
	evictions     atomic.Int64
	quarantines   atomic.Int64
	rebuilds      atomic.Int64
	seeded        atomic.Int64
	seedFallbacks atomic.Int64
	farSeeded     atomic.Int64
	farFallbacks  atomic.Int64
	librarySeeded atomic.Int64
	coalesced     atomic.Int64
	edits         atomic.Int64
	editFallbacks atomic.Int64
	coneResizes   atomic.Int64
	coneFallbacks atomic.Int64
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		model:      delay.NewModel(tech.Default013()),
		baseCtx:    ctx,
		baseCancel: cancel,
		drainCh:    make(chan struct{}),
		runSem:     make(chan struct{}, cfg.MaxInFlight),
		sessions:   make(map[string]*session),
		lru:        list.New(),
	}, nil
}

// buildCircuit parses a submit request's netlist.  Called on every
// cold build, including quarantine rebuilds — parsing afresh
// guarantees a rebuilt generation starts from pristine state (the
// worker then replays the session's edit log on top, see buildCore).
func (srv *Server) buildCircuit(src SubmitRequest) (*minflo.Circuit, error) {
	switch {
	case src.Circuit != "" && src.Bench != "":
		return nil, fmt.Errorf("serve: set exactly one of circuit and bench")
	case src.Circuit != "":
		return minflo.CircuitByName(src.Circuit)
	case src.Bench != "":
		name := src.Name
		if name == "" {
			name = "inline"
		}
		return minflo.ParseBench(strings.NewReader(src.Bench), name)
	default:
		return nil, fmt.Errorf("serve: set exactly one of circuit and bench")
	}
}

// Handler returns the daemon's HTTP routes.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", srv.handleSubmit)
	mux.HandleFunc("POST /v1/sessions/{id}/query", srv.handleQuery)
	mux.HandleFunc("POST /v1/sessions/{id}/edit", srv.handleEdit)
	mux.HandleFunc("GET /v1/sessions/{id}", srv.handleInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", srv.handleDelete)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	mux.HandleFunc("GET /readyz", srv.handleReadyz)
	mux.HandleFunc("GET /stats", srv.handleStats)
	return mux
}

// bufPool recycles the JSON encode/decode buffers across requests —
// the serving layer's share of the per-request allocation budget
// (BenchmarkServeSubmit gates it).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// readJSON slurps the request body through a pooled buffer and
// unmarshals it (a streaming Decoder would allocate its read buffer
// per request).
func readJSON(r *http.Request, dst any) error {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), dst)
}

func (srv *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(srv.cfg.RetryAfter.Seconds()+0.999)))
	}
	writeJSON(w, status, &ErrorBody{Code: code, Message: msg})
}

// handleSubmit creates (or replaces) a session.  The expensive cold
// build runs on the session's worker under the in-flight cap, so a
// burst of submits cannot stampede the CPU past admission control.
func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := readJSON(r, &req); err != nil {
		srv.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	j := &job{kind: jobBuild, ctx: r.Context(), resp: make(chan jobReply, 1)}

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	if srv.pending >= srv.cfg.MaxPending {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusTooManyRequests, CodeOverloaded, "global pending cap reached")
		return
	}
	id := req.ID
	if id == "" {
		srv.nextID++
		id = fmt.Sprintf("s-%d-%s", srv.nextID, randSuffix())
	}
	// Replacing an existing id retires the old session: its worker
	// answers any queued work with 404 and closes the solver state.
	if old, ok := srv.sessions[id]; ok {
		srv.retireLocked(old)
	}
	req.ID = id
	s := &session{
		id:       id,
		srv:      srv,
		src:      req,
		queue:    make(chan *job, srv.cfg.QueueDepth),
		inflight: make(map[string]*job),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.elem = srv.lru.PushFront(s)
	srv.sessions[id] = s
	srv.pending++
	s.queued++
	s.queue <- j // cannot fill: fresh queue, depth ≥ 1
	srv.wg.Add(1)
	srv.mu.Unlock()

	go s.run()
	srv.await(w, r, j.resp)
}

// handleQuery admits a query into the session's queue.  An identical
// query already queued (same canonical body) is not enqueued again:
// the request attaches to the in-flight job (singleflight) and shares
// its answer, consuming no queue slot and running no solve of its own.
func (srv *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req QueryRequest
	if err := readJSON(r, &req); err != nil {
		srv.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	if !(req.TargetPS > 0) {
		srv.writeError(w, http.StatusBadRequest, CodeBadRequest, "target_ps must be positive")
		return
	}

	base := canonicalQuery(&req)
	j := &job{kind: jobQuery, req: req, ctx: r.Context(), resp: make(chan jobReply, 1)}

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	s, ok := srv.sessions[id]
	if !ok {
		srv.mu.Unlock()
		srv.writeError(w, http.StatusNotFound, CodeNotFound, "no such session (evicted or never created — re-submit)")
		return
	}
	// The coalescing key is scoped to the session's edit epoch: a query
	// admitted after an edit must not ride a twin queued before it —
	// they answer against different netlists.
	key := fmt.Sprintf("e%d;%s", s.epoch, base)
	j.key = key
	if prev, ok := s.inflight[key]; ok && !prev.started {
		// Coalesce: ride the queued twin.  Attach is only legal while
		// the job has not started (the worker freezes the follower list
		// under srv.mu when it picks the job up).
		ch := make(chan jobReply, 1)
		prev.followers = append(prev.followers, ch)
		srv.lru.MoveToFront(s.elem)
		srv.mu.Unlock()
		srv.queries.Add(1)
		srv.coalesced.Add(1)
		srv.await(w, r, ch)
		return
	}
	if srv.pending >= srv.cfg.MaxPending {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusTooManyRequests, CodeOverloaded, "global pending cap reached")
		return
	}
	select {
	case s.queue <- j:
		srv.pending++
		s.queued++
		s.queries++
		s.inflight[key] = j
		srv.lru.MoveToFront(s.elem)
		srv.mu.Unlock()
	default:
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusTooManyRequests, CodeOverloaded, "session queue full")
		return
	}
	srv.queries.Add(1)
	srv.await(w, r, j.resp)
}

// canonicalQuery maps a query body to its coalescing key: bit-exact
// target and budgets, want_sizes, and the area-weight edits with
// duplicate gates collapsed to their last occurrence (last-wins — the
// semantics the session applies) and then sorted by gate, so two
// requests that set the same final weights get the same key no matter
// how their duplicate entries were ordered.
func canonicalQuery(q *QueryRequest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x;b=%d;f=%d;s=%t", math.Float64bits(q.TargetPS), q.BudgetMS, q.FlowWorkBudget, q.WantSizes)
	if len(q.AreaWeights) > 0 {
		aw := make([]AreaWeight, 0, len(q.AreaWeights))
		for i := len(q.AreaWeights) - 1; i >= 0; i-- {
			a := q.AreaWeights[i]
			dup := false
			for _, kept := range aw {
				if kept.Gate == a.Gate {
					dup = true
					break
				}
			}
			if !dup {
				aw = append(aw, a)
			}
		}
		sort.Slice(aw, func(i, j int) bool { return aw[i].Gate < aw[j].Gate })
		for _, a := range aw {
			fmt.Fprintf(&b, ";%d=%x", a.Gate, math.Float64bits(a.Weight))
		}
	}
	return b.String()
}

// handleEdit admits a netlist edit batch into the session's queue.
// Edits never coalesce (each one mutates state) and they bump the
// session's edit epoch at admission time, so queries admitted after
// the edit cannot share an answer with identical queries queued before
// it.
func (srv *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req EditRequest
	if err := readJSON(r, &req); err != nil {
		srv.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Edits) == 0 {
		srv.writeError(w, http.StatusBadRequest, CodeBadRequest, "empty edit batch")
		return
	}

	j := &job{kind: jobEdit, edit: req, ctx: r.Context(), resp: make(chan jobReply, 1)}

	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	s, ok := srv.sessions[id]
	if !ok {
		srv.mu.Unlock()
		srv.writeError(w, http.StatusNotFound, CodeNotFound, "no such session (evicted or never created — re-submit)")
		return
	}
	if srv.pending >= srv.cfg.MaxPending {
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusTooManyRequests, CodeOverloaded, "global pending cap reached")
		return
	}
	select {
	case s.queue <- j:
		srv.pending++
		s.queued++
		s.epoch++
		srv.lru.MoveToFront(s.elem)
		srv.mu.Unlock()
	default:
		srv.mu.Unlock()
		srv.rejected.Add(1)
		srv.writeError(w, http.StatusTooManyRequests, CodeOverloaded, "session queue full")
		return
	}
	srv.await(w, r, j.resp)
}

// await relays the worker's reply.  The reply channel is buffered, so
// a worker never blocks on a gone client; if the client disconnects
// first, the merged context inside the solve aborts it promptly and
// the buffered reply is dropped.
func (srv *Server) await(w http.ResponseWriter, r *http.Request, resp <-chan jobReply) {
	select {
	case rep := <-resp:
		writeJSON(w, rep.status, rep.body)
	case <-r.Context().Done():
		// Client walked away; the worker will still finish (fast — the
		// solve sees the canceled context) and drop the reply into the
		// buffer.  Nothing useful to write.
	}
}

func (srv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	if !ok {
		srv.mu.Unlock()
		srv.writeError(w, http.StatusNotFound, CodeNotFound, "no such session")
		return
	}
	info := &SessionInfo{
		ID:          s.id,
		Generation:  s.gen,
		NumGates:    s.numGates,
		MemBytes:    s.memBytes,
		Queries:     s.queries,
		Edits:       s.editsDone,
		Queued:      s.queued,
		Quarantined: s.quarantined,
	}
	srv.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	if ok {
		srv.retireLocked(s)
	}
	srv.mu.Unlock()
	if !ok {
		srv.writeError(w, http.StatusNotFound, CodeNotFound, "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (srv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	draining := srv.draining
	srv.mu.Unlock()
	if draining {
		srv.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	st := &StatsResponse{
		Sessions:      len(srv.sessions),
		MemBytes:      srv.memBytes,
		MemHigh:       srv.cfg.MemHighBytes,
		InFlight:      len(srv.runSem),
		Pending:       int64(srv.pending),
		Queries:       srv.queries.Load(),
		Rejected:      srv.rejected.Load(),
		Evictions:     srv.evictions.Load(),
		Quarantines:   srv.quarantines.Load(),
		Rebuilds:      srv.rebuilds.Load(),
		Seeded:        srv.seeded.Load(),
		SeedFallbacks: srv.seedFallbacks.Load(),
		FarSeeded:     srv.farSeeded.Load(),
		FarFallbacks:  srv.farFallbacks.Load(),
		LibrarySeeded: srv.librarySeeded.Load(),
		Coalesced:     srv.coalesced.Load(),
		Edits:         srv.edits.Load(),
		EditFallbacks: srv.editFallbacks.Load(),
		ConeResizes:   srv.coneResizes.Load(),
		ConeFallbacks: srv.coneFallbacks.Load(),
		Draining:      srv.draining,
	}
	srv.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// retireLocked removes a session from the cache and signals its worker
// to wind down.  Callers hold srv.mu.
func (srv *Server) retireLocked(s *session) {
	if s.deleted {
		return
	}
	s.deleted = true
	delete(srv.sessions, s.id)
	srv.lru.Remove(s.elem)
	srv.memBytes -= s.memBytes
	s.memBytes = 0
	close(s.quit)
}

// jobDone is the worker's completion hook: pending bookkeeping plus —
// for jobs that actually ran — watermark enforcement.
func (srv *Server) jobDone(s *session, ran bool) {
	srv.mu.Lock()
	srv.pending--
	if ran {
		s.busy = false
		srv.evictLocked()
	}
	srv.mu.Unlock()
}

// accountMem refreshes this session's byte estimate (worker context;
// called after builds and queries while the state is quiescent).
func (srv *Server) accountMem(s *session) {
	est := int64(0)
	if s.core != nil {
		est = s.core.MemoryBytes()
	}
	est += s.stateBytes() // retained source, replay history, snapshot
	srv.mu.Lock()
	if !s.deleted {
		srv.memBytes += est - s.memBytes
		s.memBytes = est
	}
	srv.mu.Unlock()
}

// evictLocked enforces the memory watermark: while the summed session
// footprint exceeds the high mark, idle sessions (no queued work, not
// executing) are evicted in LRU order until under the low mark.
// Callers hold srv.mu.
func (srv *Server) evictLocked() {
	if srv.memBytes <= srv.cfg.MemHighBytes {
		return
	}
	for e := srv.lru.Back(); e != nil && srv.memBytes > srv.cfg.MemLowBytes; {
		prev := e.Prev()
		s := e.Value.(*session)
		if !s.busy && s.queued == 0 {
			srv.retireLocked(s)
			srv.evictions.Add(1)
		}
		e = prev
	}
}

// Shutdown drains the server: admission stops (readyz answers 503),
// every already-admitted job runs to completion, and when ctx (or the
// configured DrainTimeout) expires the base context is canceled so
// still-running solves return their best-so-far partial answers.
// Shutdown returns once every session worker has exited.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.wg.Wait()
		return nil
	}
	srv.draining = true
	close(srv.drainCh)
	srv.mu.Unlock()

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, srv.cfg.DrainTimeout)
		defer cancel()
	}
	stop := context.AfterFunc(ctx, srv.baseCancel)
	defer stop()

	srv.wg.Wait()
	srv.baseCancel()
	return nil
}

func randSuffix() string {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
