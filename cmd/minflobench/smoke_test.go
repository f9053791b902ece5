package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload the way the benchmark is invoked, on
// small inputs with a 1 s window, traced: it keeps the benchmark
// building and its checks passing as the code it drives changes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	var out, errOut bytes.Buffer
	args := []string{"--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1", "-smoke", "-trace-out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	if len(res.Metrics) != len(workloads)*len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(workloads)*len(perLayer))
	}
	layer := func(w, m string) float64 { return res.Metrics[w+"/"+m].Value }
	for _, w := range workloads {
		if v := layer(w, "trace.replica_match"); v != 1 {
			t.Errorf("%s: trace.replica_match = %g", w, v)
		}
		if v := layer(w, "trace.coverage"); v < 0.95 {
			t.Errorf("%s: trace.coverage = %g", w, v)
		}
		if v := layer(w, "serve.rejected"); v != 0 {
			t.Errorf("%s: serve.rejected = %g", w, v)
		}
	}

	// The human-readable lines carry every end-to-end metric, each
	// positive: none of them may read 0.
	e2e := map[string]float64{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && !strings.HasPrefix(l, "#") {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("line %q: %v", l, err)
			}
			e2e[f[0]+"/"+f[1]] = v
		}
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v, ok := e2e[w+"/"+m.Name]; !ok || !(v > 0) {
				t.Errorf("%s %s = %g (printed %v)", w, m.Name, v, ok)
			}
		}
	}
}

// A bad flag or workload name fails without printing a result.
func TestBadInvocation(t *testing.T) {
	for _, args := range [][]string{{"--workload", "nope"}, {"--bogus"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics the
// program reports, in the same order and units.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	body, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(l.got) != len(l.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", l.name, len(l.got), len(l.want))
			continue
		}
		for i := range l.want {
			if l.got[i] != l.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", l.name, i, l.got[i], l.want[i])
			}
		}
	}
}
