// Cancellation-determinism conformance: canceling a solve at ANY poll
// point must leave the solver reusable — a subsequent fresh solve has
// to be bit-identical (flows, potentials, cost) to a twin that was
// never canceled.  This is the abort-safety contract of the
// snapshot/restore layer in abort.go, exercised on ssp and the
// cost-scaling oracle at randomized poll points for both full solves and incremental
// resolves.
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// withHook installs h as s's poll hook for one run of fn (the hook is
// removed afterwards).
func withHook(s *Solver, h func(op int64) error, fn func() (float64, error)) (float64, error) {
	s.SetContext(WithPollHook(context.Background(), h))
	defer s.SetContext(nil)
	return fn()
}

// countedRun measures how many times the abort funnel polls during one
// run of fn on s.
func countedRun(s *Solver, fn func() (float64, error)) (polls int, cost float64, err error) {
	cost, err = withHook(s, func(op int64) error { polls = int(op); return nil }, fn)
	return polls, cost, err
}

// cancelAtPoll runs fn with a context canceled at the nth poll (all
// abort plumbing is removed afterwards).
func cancelAtPoll(s *Solver, n int, fn func() (float64, error)) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetContext(WithPollHook(ctx, func(op int64) error {
		if op == int64(n) {
			cancel()
		}
		return nil
	}))
	defer s.SetContext(nil)
	return fn()
}

// cancelPoints picks the poll points to cancel at: always the first
// and the last, plus a few randomized interior ones.
func cancelPoints(rng *rand.Rand, polls, extra int) []int {
	points := []int{1, polls}
	for k := 0; k < extra; k++ {
		points = append(points, 1+rng.Intn(polls))
	}
	return points
}

// backoffRun runs fn on s and records the search's heap back-off at
// every poll: the trajectory of heap-vs-bucket choices a solve takes.
func backoffRun(s *Solver, fn func() (float64, error)) (trace [][2]int, cost float64, err error) {
	cost, err = withHook(s, func(int64) error {
		trace = append(trace, [2]int{s.ss.skip, s.ss.skipLen})
		return nil
	}, fn)
	return trace, cost, err
}

// TestConformanceCancelAtPollPoints is the cancellation-determinism
// gate: per algorithm, solves canceled at randomized poll points must
// return ErrCanceled and leave the solver able to re-solve to a state
// bit-identical with a never-canceled twin's.  Seeds from 6 on are
// grids with costs far past the bucket ring, so SSP searches fall back
// to the heap mid-solve: the re-solve must also take the twin's path
// of heap and bucket searches, which holds only if the abort rolled
// back the back-off the canceled attempt advanced.
func TestConformanceCancelAtPollPoints(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		for seed := int64(0); seed < 9; seed++ {
			instance := func() *Solver {
				if seed < 6 {
					return newEngineInstance(t, engine, seed, false)
				}
				s := NewGridInstance(12, 10, seed)
				for id := 0; id < s.NumArcs(); id++ {
					s.SetCost(id, s.Cost(id)*4099)
				}
				useEngine(s, engine)
				return s
			}
			// Reference: an identical twin solved without interference.
			ref := instance()
			wantTrace, cost, err := backoffRun(ref, ref.Solve)
			if err != nil {
				t.Fatalf("seed %d: reference solve: %v", seed, err)
			}
			polls := len(wantTrace)
			if polls == 0 {
				t.Fatalf("seed %d: solve never polled — poll sites missing for %s", seed, engine)
			}
			want := captureState(ref, cost)

			rng := rand.New(rand.NewSource(1000 + seed))
			for _, n := range cancelPoints(rng, polls, 4) {
				s := instance()
				cost, err := cancelAtPoll(s, n, s.Solve)
				if err == nil {
					// The final poll can precede completion so closely
					// that the run finishes anyway; then the state must
					// already be the reference state.
					diffState(t, "uncanceled completion", want, captureState(s, cost))
					continue
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("seed %d cancel@%d/%d: got %v, want ErrCanceled", seed, n, polls, err)
				}
				// The abort must have rolled the attempt back: re-solving
				// the untouched instance is bit-identical to the twin.
				trace, cost, err := backoffRun(s, s.Solve)
				if err != nil {
					t.Fatalf("seed %d re-solve after cancel@%d: %v", seed, n, err)
				}
				diffState(t, "re-solve after cancel", want, captureState(s, cost))
				if fmt.Sprint(trace) != fmt.Sprint(wantTrace) {
					t.Fatalf("seed %d re-solve after cancel@%d: heap back-off %v, reference %v", seed, n, trace, wantTrace)
				}
			}
		}
	})
}

// TestConformanceCancelDuringResolve covers the incremental path: a
// canceled ResolveChanged must leave the warm state intact so retrying
// the same resolve matches a twin that was never canceled.
func TestConformanceCancelDuringResolve(t *testing.T) {
	forEachEngine(t, func(t *testing.T, engine string) {
		for seed := int64(0); seed < 4; seed++ {
			ref := newEngineInstance(t, engine, seed, false)
			if _, err := ref.Solve(); err != nil {
				t.Fatalf("seed %d: warm solve: %v", seed, err)
			}
			changedRef := mutateRandom(rand.New(rand.NewSource(500+seed)), ref, false)
			polls, cost, err := countedRun(ref, func() (float64, error) { return ref.ResolveChanged(changedRef) })
			if err != nil {
				continue // the mutation batch made the instance infeasible
			}
			if polls == 0 {
				// A batch the engine absorbs without augmentation work
				// has no poll point to cancel at.
				continue
			}
			want := captureState(ref, cost)

			rng := rand.New(rand.NewSource(2000 + seed))
			for _, n := range cancelPoints(rng, polls, 3) {
				s := newEngineInstance(t, engine, seed, false)
				if _, err := s.Solve(); err != nil {
					t.Fatalf("seed %d: warm solve: %v", seed, err)
				}
				changed := mutateRandom(rand.New(rand.NewSource(500+seed)), s, false)
				cost, err := cancelAtPoll(s, n, func() (float64, error) { return s.ResolveChanged(changed) })
				if err == nil {
					diffState(t, "uncanceled resolve", want, captureState(s, cost))
					continue
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("seed %d cancel@%d/%d: got %v, want ErrCanceled", seed, n, polls, err)
				}
				cost, err = s.ResolveChanged(changed)
				if err != nil {
					t.Fatalf("seed %d re-resolve after cancel@%d: %v", seed, n, err)
				}
				diffState(t, "re-resolve after cancel", want, captureState(s, cost))
			}
		}
	})
}

// TestConformanceCancelInsidePhase aims the cancellation at the
// primal–dual phases of SSP full solves: on many-source instances (a
// grid and a tree) it cancels at poll points inside a phase's blocking
// flow — one poll per routed path — and at the last poll, cold and
// after a warm cost perturbation.  The canceled solve must return
// ErrCanceled, and re-solving must match a never-canceled twin bit for
// bit.
func TestConformanceCancelInsidePhase(t *testing.T) {
	builds := []struct {
		name  string
		build func(seed int64) *Solver
	}{
		{"grid", func(seed int64) *Solver { return NewGridInstance(12, 10, seed) }},
		{"tree", func(seed int64) *Solver { return buildTreeFeasible(rand.New(rand.NewSource(seed))) }},
	}
	for _, b := range builds {
		for seed := int64(0); seed < 3; seed++ {
			for _, warm := range []bool{false, true} {
				tag := fmt.Sprintf("%s/%d warm=%v", b.name, seed, warm)
				// prime builds the instance and, for the warm case,
				// solves it once and perturbs its costs.
				prime := func() *Solver {
					s := b.build(seed)
					if warm {
						if _, err := s.Solve(); err != nil {
							t.Fatalf("%s: priming solve: %v", tag, err)
						}
						rng := rand.New(rand.NewSource(seed))
						for id := 0; id < s.NumArcs(); id++ {
							if rng.Intn(3) == 0 {
								s.SetCost(id, s.Cost(id)+int64(rng.Intn(30)))
							}
						}
					}
					return s
				}

				// Reference run: record the polls inside the blocking
				// flows of the first two phases (races of the
				// per-source loop start after the third), which follow
				// a routed path and so see the augmentation count rise.
				ref := prime()
				st0 := ref.EngineStats()
				var inside []int
				polls, augs := 0, st0.Augmentations
				cost, err := withHook(ref, func(op int64) error {
					polls = int(op)
					st := ref.EngineStats()
					if st.Phases-st0.Phases <= 2 && st.Augmentations > augs {
						inside = append(inside, polls)
					}
					augs = st.Augmentations
					return nil
				}, ref.Solve)
				if err != nil {
					t.Fatalf("%s: reference solve: %v", tag, err)
				}
				if len(inside) < 2 {
					t.Fatalf("%s: the first two phases routed %d paths, want several", tag, len(inside))
				}
				want := captureState(ref, cost)

				points := []int{inside[0], inside[len(inside)/2], inside[len(inside)-1], polls}
				for _, n := range points {
					s := prime()
					cost, err := cancelAtPoll(s, n, s.Solve)
					if err == nil {
						diffState(t, tag+" uncanceled completion", want, captureState(s, cost))
						continue
					}
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("%s cancel@%d/%d: got %v, want ErrCanceled", tag, n, polls, err)
					}
					cost, err = s.Solve()
					if err != nil {
						t.Fatalf("%s re-solve after cancel@%d: %v", tag, n, err)
					}
					diffState(t, fmt.Sprintf("%s re-solve after cancel@%d", tag, n), want, captureState(s, cost))
				}
			}
		}
	}
}

// TestSSPFailureReRunsOnHeap is the rescue: with fallback enabled, a
// failing attempt rolls back and re-runs once, without the poll hook,
// with its search pinned to the heap, counted in EngineFailures and
// bit-identical to a heap-pinned twin — for a full solve and a
// resolve.  A failure of the pinned search is not rescued again.
func TestSSPFailureReRunsOnHeap(t *testing.T) {
	errInjected := errors.New("injected")
	failAt := func(s *Solver, n int) {
		s.SetContext(WithPollHook(context.Background(), func(op int64) error {
			if op == int64(n) {
				return errInjected
			}
			return nil
		}))
	}
	s, twin := NewGridInstance(12, 10, 3), NewGridInstance(12, 10, 3)
	twin.ss.heapOnly = true
	s.SetEngineFallback(true)
	failAt(s, 5)
	cost, err := s.Solve()
	if err != nil {
		t.Fatalf("rescued solve: %v", err)
	}
	if s.EngineFailures() != 1 || !errors.Is(s.LastEngineFailure(), errInjected) || !s.ss.heapOnly {
		t.Fatalf("after rescue: %d failures (%v), heapOnly %v", s.EngineFailures(), s.LastEngineFailure(), s.ss.heapOnly)
	}
	want, err := twin.Solve()
	if err != nil {
		t.Fatal(err)
	}
	diffState(t, "rescued solve", captureState(twin, want), captureState(s, cost))

	rng := rand.New(rand.NewSource(3))
	var changed []int32
	for id := 0; id < s.NumArcs(); id += 1 + rng.Intn(8) {
		c := s.Cost(id) + int64(rng.Intn(30))
		s.SetCost(id, c)
		twin.SetCost(id, c)
		changed = append(changed, int32(id))
	}
	failAt(s, 2)
	if _, err := s.ResolveChanged(changed); !errors.Is(err, errInjected) {
		t.Fatalf("failure of the pinned search: %v, want the injected error", err)
	}
	s.SetContext(nil)
	if s.EngineFailures() != 1 {
		t.Fatalf("%d failures after an unrescued one, want 1", s.EngineFailures())
	}
	cost, err = s.ResolveChanged(changed)
	if err != nil {
		t.Fatal(err)
	}
	want, err = twin.ResolveChanged(changed)
	if err != nil {
		t.Fatal(err)
	}
	diffState(t, "resolve after the rescue", captureState(twin, want), captureState(s, cost))
}
