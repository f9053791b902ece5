package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/fault"
)

// soakEntry is one accepted state-advancing request, recorded for twin
// replay: a clean query (possibly carrying a sticky area-weight batch)
// or a value-only edit batch (edits non-nil; the other fields unused).
type soakEntry struct {
	seq     int
	target  float64
	weights []AreaWeight
	area    float64
	cp      float64
	iters   int
	sizes   []float64
	edits   []EditOp
}

// soakLog accumulates, per (session id, submit epoch), the contiguous
// prefix of clean completed queries in generation 0 of that epoch.
// Recording for an epoch stops at the first non-clean outcome (abort,
// partial, cancellation, engine failure): from there on the warm state
// has advanced by a partially-completed query, so later answers are no
// longer a function of the recorded sequence alone.  A re-submit opens
// a new epoch and recording resumes.
//
// Every epoch submits under a fresh session id.  A query the client
// abandoned (the 2 ms cancellation) may still reach the server after
// the client has moved on; under a reused id it would land on the
// re-submitted session as an unrecorded query and break the contiguous
// prefix, while under a retired id it answers 404.
type soakLog struct {
	mu      sync.Mutex
	entries map[string][]soakEntry // key: id@epoch
}

func (l *soakLog) add(key string, e soakEntry) {
	l.mu.Lock()
	l.entries[key] = append(l.entries[key], e)
	l.mu.Unlock()
}

// TestServeSoak is the ISSUE's acceptance drill: N concurrent clients
// × M sessions under -race, with mid-request cancellations, per-call
// budget aborts, deletes, eviction under a small memory budget, and
// one injected engine panic.  The server must stay up through all of
// it, the quarantined session must rebuild, and every recorded clean
// query must be bit-identical to a serial twin session replaying the
// same sequence.
func TestServeSoak(t *testing.T) {
	// Size the memory watermark off a real measurement so eviction
	// pressure is guaranteed regardless of platform word sizes: the
	// budget fits only a few of the soak's sessions.
	probe, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := probe.buildCircuit(SubmitRequest{Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := dag.NewEco(ckt, probe.model)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewEcoSession(eco, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oneSession := cs.MemoryBytes()
	cs.Close()

	srv, err := New(Config{
		MaxPending:   16,
		QueueDepth:   2,
		MemHighBytes: 4 * oneSession,
		MemLowBytes:  3 * oneSession,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	drill := injectFaults(srv.Handler(), "drill")
	hs := httptest.NewServer(drill)
	defer hs.Close()

	const (
		clients    = 3
		perClient  = 2  // sessions per client (not shared across clients)
		opsPerSess = 12 // queries per session per soak pass
	)
	circuits := []string{"adder16", "adder8", "c17"}
	specs := []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75}

	log := &soakLog{entries: make(map[string][]soakEntry)}
	var circuitOf sync.Map // id -> circuit name, for twin rebuilds

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			c := NewClient(hs.URL, hs.Client())
			c.BaseDelay = 5 * time.Millisecond
			ctx := context.Background()

			type sessState struct {
				name      string // the session's id is name.e<epoch>
				id        string
				circuit   string
				epoch     int
				recording bool
				dmin      float64
				gates     int
			}
			sessions := make([]*sessState, perClient)
			submit := func(s *sessState) bool {
				id := fmt.Sprintf("%s.e%d", s.name, s.epoch+1)
				sub, err := c.Submit(ctx, &SubmitRequest{ID: id, Circuit: s.circuit})
				if err != nil {
					t.Errorf("client %d submit %s: %v", ci, id, err)
					return false
				}
				s.id = id
				s.epoch++
				s.recording = true
				s.dmin = sub.MinDelayPS
				s.gates = sub.NumGates
				circuitOf.Store(s.id, s.circuit)
				return true
			}
			for si := range sessions {
				s := &sessState{
					name:    fmt.Sprintf("c%d-s%d", ci, si),
					circuit: circuits[(ci*perClient+si)%len(circuits)],
				}
				if !submit(s) {
					return
				}
				sessions[si] = s
			}

			for op := 0; op < opsPerSess*perClient; op++ {
				s := sessions[rng.Intn(perClient)]
				roll := rng.Float64()
				switch {
				case roll < 0.06:
					// Delete, then immediately re-submit (new epoch).
					if err := c.Delete(ctx, s.id); err != nil {
						var apiErr *APIError
						if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeNotFound {
							t.Errorf("client %d delete %s: %v", ci, s.id, err)
						}
					}
					if !submit(s) {
						return
					}
				case roll < 0.16:
					// Mid-request cancellation: a deadline so short the
					// solve is aborted in flight.  Whatever happened
					// server-side, the state may have advanced — stop
					// recording this epoch.
					qctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
					_, _ = c.Query(qctx, s.id, &QueryRequest{TargetPS: 0.5 * s.dmin})
					cancel()
					s.recording = false
				case roll < 0.26:
					// Starved flow-work budget: a partial answer.
					q, err := c.Query(ctx, s.id, &QueryRequest{TargetPS: 0.5 * s.dmin, FlowWorkBudget: 1})
					if err == nil && q.Error == nil {
						t.Errorf("client %d: 1-op budget completed cleanly", ci)
					}
					s.recording = false
				case roll < 0.36:
					// Value-only netlist edit: session history the twin
					// must replay in order, interleaved with the queries.
					ops := []EditOp{{Op: "load", Gate: rng.Intn(s.gates), LoadFF: 2 * rng.Float64()}}
					er, err := c.Edit(ctx, s.id, &EditRequest{Edits: ops})
					if err != nil {
						var apiErr *APIError
						if errors.As(err, &apiErr) && apiErr.Body.Code == CodeNotFound {
							if !submit(s) {
								return
							}
							continue
						}
						t.Errorf("client %d edit %s: %v", ci, s.id, err)
						continue
					}
					if s.recording && er.Generation == 0 {
						log.add(fmt.Sprintf("%s@%d", s.id, s.epoch), soakEntry{edits: ops})
					} else if er.Generation != 0 {
						s.recording = false
					}
				default:
					spec := specs[rng.Intn(len(specs))]
					// A third of the queries carry sticky area-weight
					// batches — state a quarantine rebuild must replay.
					var aws []AreaWeight
					if rng.Float64() < 0.35 {
						for k := 1 + rng.Intn(2); k > 0; k-- {
							aws = append(aws, AreaWeight{Gate: rng.Intn(s.gates), Weight: 0.5 + 2.5*rng.Float64()})
						}
					}
					q, err := c.Query(ctx, s.id, &QueryRequest{TargetPS: spec * s.dmin, WantSizes: true, AreaWeights: aws})
					if err != nil {
						var apiErr *APIError
						if errors.As(err, &apiErr) && apiErr.Body.Code == CodeNotFound {
							// Evicted under memory pressure: rebuild.
							if !submit(s) {
								return
							}
							continue
						}
						if errors.As(err, &apiErr) && apiErr.Body.Code == CodeInfeasible {
							// Accumulated load edits pushed this target out
							// of reach; the failed attempt still applied
							// the sticky weights, so stop recording.
							s.recording = false
							continue
						}
						t.Errorf("client %d query %s: %v", ci, s.id, err)
						continue
					}
					if q.Error != nil || q.Partial {
						s.recording = false
						continue
					}
					if q.CPPS > spec*s.dmin*(1+1e-9) {
						t.Errorf("client %d: %s answer misses target: %.6g > %.6g", ci, s.id, q.CPPS, spec*s.dmin)
					}
					if s.recording && q.Generation == 0 {
						log.add(fmt.Sprintf("%s@%d", s.id, s.epoch), soakEntry{
							seq: q.Seq, target: spec * s.dmin, weights: aws,
							area: q.Area, cp: q.CPPS, iters: q.Iterations, sizes: q.Sizes,
						})
					} else if q.Generation != 0 {
						s.recording = false
					}
				}
			}
		}(ci)
	}

	// The fault drill runs beside the soak traffic: a dedicated
	// session takes an injected panic, quarantines, and rebuilds —
	// while every other session keeps answering.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		c := NewClient(hs.URL, hs.Client())
		submit := func() *SubmitResponse {
			sub, err := c.Submit(ctx, &SubmitRequest{ID: "drill", Circuit: "adder16"})
			if err != nil {
				t.Errorf("drill submit: %v", err)
				return nil
			}
			return sub
		}
		// The drill session can be evicted between any two of its HTTP
		// calls (it idles while other sessions pile on memory), so
		// every step resubmits on 404 and tries again.
		query := func(target float64) (*QueryResponse, error) {
			for attempt := 0; ; attempt++ {
				q, err := c.Query(ctx, "drill", &QueryRequest{TargetPS: target})
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.Body.Code == CodeNotFound && attempt < 10 {
					if submit() == nil {
						return nil, err
					}
					continue
				}
				return q, err
			}
		}
		sub := submit()
		if sub == nil {
			return
		}
		ref, err := query(0.6 * sub.MinDelayPS)
		if err != nil || ref.Error != nil {
			t.Errorf("drill reference query: %v %+v", err, ref)
			return
		}
		// Keep injecting until the panic lands on the drill session (an
		// eviction between arming and querying rebuilds it cold and the
		// panic may fire on a solve that answers 404 instead).
		quarantined := false
		for attempt := 0; attempt < 10 && !quarantined; attempt++ {
			drill.set(fault.Plan{Mode: fault.Panic, Op: 20})
			q, err := query(0.5 * sub.MinDelayPS)
			drill.set(fault.Plan{})
			if err != nil {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Body.Code != CodeEngineFailed {
					t.Errorf("drill panic surfaced as: %v", err)
					return
				}
				quarantined = true
			} else if q.Error != nil && q.Error.Code == CodeEngineFailed {
				quarantined = true
			}
		}
		if !quarantined {
			t.Error("drill never quarantined its session")
			return
		}
		// The rebuilt generation's first query is cold, so it answers
		// the reference target exactly like the original cold build.
		q2, err := query(0.6 * sub.MinDelayPS)
		if err != nil || q2.Error != nil {
			t.Errorf("drill post-rebuild query: %v %+v", err, q2)
			return
		}
		if q2.Area != ref.Area || q2.CPPS != ref.CPPS || q2.Iterations != ref.Iterations {
			t.Errorf("drill rebuilt generation diverged: %+v vs %+v", q2, ref)
		}
	}()

	wg.Wait()

	// The process survived everything; check the drills actually ran.
	c := NewClient(hs.URL, hs.Client())
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantines < 1 {
		t.Error("soak never quarantined a session")
	}
	if st.Evictions < 1 {
		t.Errorf("soak never evicted under MemHigh=%d (mem=%d)", 4*oneSession, st.MemBytes)
	}
	if st.Queries < clients*perClient {
		t.Errorf("suspiciously few queries served: %d", st.Queries)
	}
	if st.MemBytes > 4*oneSession+oneSession/2 {
		t.Errorf("resting memory %d above watermark %d", st.MemBytes, 4*oneSession)
	}

	// Twin replay: every recorded epoch's clean-query prefix must be
	// bit-identical on a fresh serial session replaying it.
	verified := 0
	for key, entries := range log.entries {
		at := strings.LastIndexByte(key, '@')
		if at < 0 {
			t.Fatalf("bad key %q", key)
		}
		id := key[:at]
		cname, ok := circuitOf.Load(id)
		if !ok {
			t.Fatalf("no circuit recorded for %q", id)
		}
		tc, err := srv.buildCircuit(SubmitRequest{Circuit: cname.(string)})
		if err != nil {
			t.Fatal(err)
		}
		teco, err := dag.NewEco(tc, srv.model)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := core.NewEcoSession(teco, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		qseq := 0
		for _, e := range entries {
			if e.edits != nil {
				batch := make([]dag.Edit, len(e.edits))
				for k, op := range e.edits {
					batch[k] = dag.Edit{Op: dag.EditLoad, Gate: op.Gate, LoadFF: op.LoadFF}
				}
				if _, err := twin.ApplyEdits(batch); err != nil {
					t.Fatalf("%s twin edit replay: %v", key, err)
				}
				continue
			}
			qseq++
			if e.seq != qseq {
				t.Fatalf("%s: recorded seqs not a contiguous prefix: %d at %d", key, e.seq, qseq)
			}
			if len(e.weights) > 0 {
				gates := make([]int, len(e.weights))
				ws := make([]float64, len(e.weights))
				for k, aw := range e.weights {
					gates[k], ws[k] = aw.Gate, aw.Weight
				}
				if err := twin.SetAreaWeights(gates, ws); err != nil {
					t.Fatalf("%s twin weight replay: %v", key, err)
				}
			}
			res, err := twin.Resize(context.Background(), e.target, core.Budgets{})
			if err != nil {
				t.Fatalf("%s twin seq %d: %v", key, e.seq, err)
			}
			if res.Area != e.area || res.CP != e.cp || res.Iterations != e.iters {
				t.Fatalf("%s seq %d diverged from twin: server (%.17g, %.17g, %d) vs twin (%.17g, %.17g, %d)",
					key, e.seq, e.area, e.cp, e.iters, res.Area, res.CP, res.Iterations)
			}
			for g := range e.sizes {
				if e.sizes[g] != res.X[g] {
					t.Fatalf("%s seq %d size[%d] diverged: %.17g vs %.17g", key, e.seq, g, e.sizes[g], res.X[g])
				}
			}
			verified++
		}
		twin.Close()
	}
	if verified < clients*perClient {
		t.Errorf("only %d clean queries twin-verified — soak mix too hostile", verified)
	}
	t.Logf("soak: %d queries served, %d twin-verified bit-identical, %d evictions, %d quarantines, %d rebuilds",
		st.Queries, verified, st.Evictions, st.Quarantines, st.Rebuilds)

	// Graceful shutdown with traffic done: drains cleanly.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}
