package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run reports, in every
// workload (BENCHMARK.json's end_to_end list).  Each workload defines
// its operation; see README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"area_ratio", "ratio"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports (BENCHMARK.json's
// per_layer list).  A layer a workload never calls reads 0.
var perLayer = []metricSpec{
	{"dag.build_s", "s"},
	{"tilos.seed_s", "s"},
	{"tilos.baseline_s", "s"},
	{"tilos.repair_s", "s"},
	{"tilos.repairs", "count"},
	{"sta.analyze_s", "s"},
	{"sta.retime_s", "s"},
	{"balance.balance_s", "s"},
	{"lin.sens_s", "s"},
	{"dcs.setup_s", "s"},
	{"mcmf.solve_s", "s"},
	{"mcmf.resolve_s", "s"},
	{"mcmf.solves", "count"},
	{"mcmf.resolves", "count"},
	{"mcmf.full_fallbacks", "count"},
	{"mcmf.resolve_hit", "ratio"},
	{"mcmf.visited", "count"},
	{"mcmf.augmentations", "count"},
	{"smp.wphase_s", "s"},
	{"smp.clamped", "count"},
	{"core.iterations", "count"},
	{"core.loop_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.replica_match", "bool"},
	{"serve.self_ms_p50", "ms"},
	{"serve.self_ms_p99", "ms"},
	{"serve.rejected", "count"},
	{"serve.coalesced", "count"},
	{"core.resize_warm_ms_p50", "ms"},
	{"core.resize_cold_ms_p50", "ms"},
	{"core.resize_cone_ms_p50", "ms"},
	{"core.edit_ms_p50", "ms"},
	{"core.seeded_ratio", "ratio"},
	{"core.cone_ratio", "ratio"},
	{"core.edit_fallback_ratio", "ratio"},
	{"core.iters_warm", "count"},
	{"core.iters_cold", "count"},
	{"core.iters_cone", "count"},
	{"core.cone_gates_mean", "count"},
	{"mcmf.resolves_per_query", "ratio"},
	{"n.warm", "count"},
	{"n.cold", "count"},
	{"n.cone", "count"},
	{"n.edit", "count"},
}

// report is the outcome of one workload run.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	problems  []string
	E2E       map[string]float64
	Layer     map[string]float64
	notes     []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// fail records a failed or mis-verified operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one "workload metric value unit" line per metric, then
// the notes and problems as comment lines.
func (r *report) print(w io.Writer, traced bool) {
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, r.E2E[m.Name], m.Unit)
	}
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, r.Layer[m.Name], m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.Workload, p)
	}
	fmt.Fprintf(w, "# %s: %d operations, %d failed\n", r.Workload, r.Attempted, r.Failed)
}

// writeResult prints the machine-readable last line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
// With several workloads each name is prefixed by its workload.
func writeResult(w io.Writer, reps []*report, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if r.Failed > 0 {
			out.Correct = false
		}
		specs, vals := endToEnd, r.E2E
		if traced {
			specs, vals = perLayer, r.Layer
		}
		for _, m := range specs {
			name := m.Name
			if len(reps) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{vals[m.Name], m.Unit}
		}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return err
}

// memSampler tracks the peak live heap while a workload measures.  The
// live heap is what the last garbage collection found reachable, so the
// peak follows the program's working set rather than the collector's
// pacing.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := make([]metrics.Sample, len(liveHeap))
		for {
			copy(s, liveHeap)
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak in MB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	<-m.done
	s := append([]metrics.Sample(nil), liveHeap...)
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > m.peak {
		m.peak = v
	}
	return float64(m.peak) / (1 << 20)
}

// allocCounter reads the cumulative heap allocation counters.
type allocCounter struct{ objects, bytes uint64 }

func readAllocs() allocCounter {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocCounter{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// perOp returns allocations and kilobytes allocated per operation since
// a.
func (a allocCounter) perOp(ops int) (allocs, kb float64) {
	b := readAllocs()
	if ops == 0 {
		return 0, 0
	}
	return float64(b.objects-a.objects) / float64(ops), float64(b.bytes-a.bytes) / 1024 / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
