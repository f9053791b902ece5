package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"
)

// TestServeLatencyReport measures the serving latency distributions
// quoted in EXPERIMENTS.md ("Serving").  It is a measurement, not an
// assertion — run it explicitly with:
//
//	MINFLOD_LATENCY=1 go test -run TestServeLatencyReport -v ./internal/serve
//
// Single client, serial requests (MaxInFlight 1): the
// honest single-core numbers, no pipelining flattery.  The warm and
// cold columns answer the identical query mix (alternating 0.6/0.55
// ·Dmin targets) so the comparison isolates what warm state buys.
func TestServeLatencyReport(t *testing.T) {
	if os.Getenv("MINFLOD_LATENCY") == "" {
		t.Skip("set MINFLOD_LATENCY=1 to run the latency measurement")
	}
	srv, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, hs.Client())
	ctx := context.Background()

	report := func(label string, lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		qps := float64(len(lat)) / sum.Seconds()
		p := func(q float64) time.Duration { return lat[int(q*float64(len(lat)-1))] }
		fmt.Printf("%-34s n=%3d  qps=%7.1f  p50=%8.2fms  p99=%8.2fms\n",
			label, len(lat), qps,
			float64(p(0.50).Microseconds())/1000, float64(p(0.99).Microseconds())/1000)
		return p(0.50)
	}

	for _, circuit := range []string{"adder16", "mult8"} {
		sub, err := c.Submit(ctx, &SubmitRequest{ID: "probe-" + circuit, Circuit: circuit})
		if err != nil {
			t.Fatal(err)
		}
		specs := [2]float64{0.6, 0.55}

		// Submit only: session creation (parse, problem build, STA) —
		// the fixed cost a session amortizes over its queries.
		const nSubmit = 100
		lat := make([]time.Duration, 0, nSubmit)
		for i := 0; i < nSubmit; i++ {
			id := fmt.Sprintf("cold-%d", i)
			t0 := time.Now()
			if _, err := c.Submit(ctx, &SubmitRequest{ID: id, Circuit: circuit}); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
			if err := c.Delete(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		report("submit only        ("+circuit+")", lat)

		// Cold submit+query: a fresh session for every ask.
		const nCold = 40
		lat = lat[:0]
		for i := 0; i < nCold; i++ {
			id := fmt.Sprintf("coldq-%d", i)
			t0 := time.Now()
			if _, err := c.Submit(ctx, &SubmitRequest{ID: id, Circuit: circuit}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(ctx, id, &QueryRequest{TargetPS: specs[i%2] * sub.MinDelayPS}); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
			if err := c.Delete(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		report("cold submit+query  ("+circuit+")", lat)

		// Warm queries: one live session, same target mix.
		for _, s := range specs {
			if _, err := c.Query(ctx, "probe-"+circuit, &QueryRequest{TargetPS: s * sub.MinDelayPS}); err != nil {
				t.Fatal(err)
			}
		}
		const nWarm = 40
		lat = lat[:0]
		for i := 0; i < nWarm; i++ {
			t0 := time.Now()
			q, err := c.Query(ctx, "probe-"+circuit, &QueryRequest{TargetPS: specs[i%2] * sub.MinDelayPS})
			if err != nil || q.Error != nil {
				t.Fatalf("warm query %d: %v %+v", i, err, q)
			}
			lat = append(lat, time.Since(t0))
		}
		report("warm query         ("+circuit+")", lat)
	}

	// --- Trust-region warm seeding ----------------------------------
	// The refinement workload the trust region exists for: a client
	// sweeping targets within ±0.7% of its previous ask.  The seeded
	// server answers from the prior converged sizing; the baselines are
	// a cold submit+query per ask and a warm-but-unseeded session (the
	// TrustRegion-off behavior, TILOS re-seed every query).
	srvTR, err := New(Config{MaxInFlight: 1, TrustRegion: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	hsTR := httptest.NewServer(srvTR.Handler())
	defer hsTR.Close()
	cTR := NewClient(hsTR.URL, hsTR.Client())

	refine := []float64{0.600, 0.602, 0.598, 0.601, 0.599, 0.603, 0.597, 0.604, 0.596}
	for _, circuit := range []string{"adder16", "mult8"} {
		sub, err := cTR.Submit(ctx, &SubmitRequest{ID: "tr-" + circuit, Circuit: circuit})
		if err != nil {
			t.Fatal(err)
		}

		// Cold submit+query per refinement ask.
		const nColdR = 20
		lat := make([]time.Duration, 0, 64)
		for i := 0; i < nColdR; i++ {
			id := fmt.Sprintf("coldr-%d", i)
			t0 := time.Now()
			if _, err := c.Submit(ctx, &SubmitRequest{ID: id, Circuit: circuit}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Query(ctx, id, &QueryRequest{TargetPS: refine[i%len(refine)] * sub.MinDelayPS}); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
			if err := c.Delete(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		coldP50 := report("cold submit+query  (refine "+circuit+")", lat)

		// Warm, seeding off: the PR-7 answer to the same mix.
		const nRefine = 40
		if _, err := c.Query(ctx, "probe-"+circuit, &QueryRequest{TargetPS: refine[0] * sub.MinDelayPS}); err != nil {
			t.Fatal(err)
		}
		lat = lat[:0]
		for i := 0; i < nRefine; i++ {
			t0 := time.Now()
			q, err := c.Query(ctx, "probe-"+circuit, &QueryRequest{TargetPS: refine[(i+1)%len(refine)] * sub.MinDelayPS})
			if err != nil || q.Error != nil {
				t.Fatalf("unseeded refine query %d: %v %+v", i, err, q)
			}
			lat = append(lat, time.Since(t0))
		}
		report("warm unseeded      (refine "+circuit+")", lat)

		// Warm with the trust region: every query after the anchor must
		// actually ride the seed.
		if _, err := cTR.Query(ctx, "tr-"+circuit, &QueryRequest{TargetPS: refine[0] * sub.MinDelayPS}); err != nil {
			t.Fatal(err)
		}
		lat = lat[:0]
		for i := 0; i < nRefine; i++ {
			t0 := time.Now()
			q, err := cTR.Query(ctx, "tr-"+circuit, &QueryRequest{TargetPS: refine[(i+1)%len(refine)] * sub.MinDelayPS})
			if err != nil || q.Error != nil {
				t.Fatalf("seeded refine query %d: %v %+v", i, err, q)
			}
			if q.Seed != "warm" {
				t.Fatalf("refine query %d answered from %q, want warm seed (fallback=%v)", i, q.Seed, q.SeedFallback)
			}
			lat = append(lat, time.Since(t0))
		}
		seedP50 := report("warm seeded        (refine "+circuit+")", lat)

		ratio := float64(coldP50) / float64(seedP50)
		fmt.Printf("%-34s p50 speedup vs cold: %.1fx\n", "warm seeded        ("+circuit+")", ratio)
		if ratio < 1.5 {
			t.Errorf("%s: warm-seeded p50 only %.2fx faster than cold submit+query, want >= 1.5x", circuit, ratio)
		}
	}

	// --- δ-sweep -----------------------------------------------------
	// How far can the target move before seeding stops paying?  A
	// deliberately generous trust region accepts every step; the step
	// size sweeps from refinement-scale to re-target-scale.  The p50s
	// justify the daemon default δ=0.05.
	srvSw, err := New(Config{MaxInFlight: 1, TrustRegion: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	hsSw := httptest.NewServer(srvSw.Handler())
	defer hsSw.Close()
	cSw := NewClient(hsSw.URL, hsSw.Client())
	subSw, err := cSw.Submit(ctx, &SubmitRequest{ID: "sweep", Circuit: "adder16"})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []float64{0.002, 0.01, 0.02, 0.05, 0.10, 0.20} {
		targets := [2]float64{0.6 * (1 - step/2), 0.6 * (1 + step/2)}
		for _, s := range targets { // prime both endpoints
			if _, err := cSw.Query(ctx, "sweep", &QueryRequest{TargetPS: s * subSw.MinDelayPS}); err != nil {
				t.Fatal(err)
			}
		}
		const nStep = 20
		lat := make([]time.Duration, 0, nStep)
		seeded := 0
		for i := 0; i < nStep; i++ {
			t0 := time.Now()
			q, err := cSw.Query(ctx, "sweep", &QueryRequest{TargetPS: targets[i%2] * subSw.MinDelayPS})
			if err != nil || q.Error != nil {
				t.Fatalf("sweep step %g query %d: %v %+v", step, i, err, q)
			}
			if q.Seed == "warm" {
				seeded++
			}
			lat = append(lat, time.Since(t0))
		}
		report(fmt.Sprintf("δ-sweep step=%4.1f%% seeded=%2d/20", step*100, seeded), lat)
	}
}
