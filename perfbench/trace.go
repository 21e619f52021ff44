package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call (or batch of calls) into a layer. Spans of one
// workload operation share Op; Parent is the enclosing span's ID (0 for a
// root). Count is the number of layer calls the span covers: per-node calls
// are wrapped in shard-sized batches, because a clock read costs about as
// much as one node's tick.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id, recording how many layer calls it covered.
func (t *tracer) end(id, count int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Count = count
}

// durationOf returns the duration of span id.
func (t *tracer) durationOf(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	spans, calls int
	total, self  time.Duration
}

// totals aggregates spans by name. A span's self time is its duration minus
// the time its child spans cover; children never overlap, because every
// span is recorded on the benchmark's one driving goroutine.
func (t *tracer) totals() map[string]*spanTotal {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*spanTotal{}
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanTotal{}
			out[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.spans++
		a.calls += s.Count
		a.total += d
		a.self += d - child[s.ID]
	}
	return out
}

// printSummary prints one line per span name: spans, layer calls, total
// and self time.
func (t *tracer) printSummary(w io.Writer) {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := tot[n]
		fmt.Fprintf(w, "span   %-28s spans=%d calls=%d total_ms=%.3f self_ms=%.3f\n",
			n, a.spans, a.calls, a.total.Seconds()*1e3, a.self.Seconds()*1e3)
	}
}
