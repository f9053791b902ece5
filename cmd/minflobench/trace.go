package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.  Parent is the span that caused it (0 for a root).
// A parent's children run one at a time, so its self time is its
// duration minus the sum of theirs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one run in memory; they are written out
// once, when the benchmark ends.  All spans of a run share its id.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// next returns the id the next span will get.
func (t *tracer) next() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + 1
}

// wrap runs f inside a span named name.
func (t *tracer) wrap(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename relabels span id — for a call whose layer is known only once
// it returns (a flow solve served incrementally is a resolve).
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// record adds a span measured elsewhere (the serve twin times each
// replayed call itself and attributes it to the HTTP request that
// caused it).
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d)})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's duration minus the durations of its
// direct children, indexed by span id - 1.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// selfByName sums self time per span name over the spans with ids from
// from on.
func selfByName(spans []span, from int) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i := from - 1; i < len(spans); i++ {
		out[spans[i].Name] += time.Duration(self[i])
	}
	return out
}

// writeTrace writes the run's spans as JSON to dir/<run>.json.
func writeTrace(dir string, t *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".json")
	body, err := json.Marshal(struct {
		Run   string `json:"run"`
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{t.run, t.epoch.Format(time.RFC3339Nano), t.snapshot()})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
