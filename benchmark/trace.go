package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval around a call the benchmark makes into the
// program. Spans of one op share Trace, the ID of the op's root span.
type Span struct {
	Trace  uint64         `json:"trace"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs skip tracing.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so a parent's ID can be handed to children that
// finish before it does. It returns 0 on a nil tracer.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span; id 0 reserves a fresh one.
func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	if trace == 0 {
		trace = id
	}
	s := Span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Attrs: attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the run's metadata and every span as one JSON object.
func (t *tracer) write(path string, m meta) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	buf, err := json.Marshal(struct {
		Meta  meta   `json:"meta"`
		Spans []Span `json:"spans"`
	}{m, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (two
// experiment runners at once, a poll during a job's run) count once.
func selfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfShares sums self time by span name and divides it by the summed
// duration of the root spans named root: the share of an op's wall time
// each layer accounts for. Work running in parallel can push the shares
// of one op past 1.
func selfShares(spans []Span, root string) map[string]float64 {
	self := selfTimes(spans)
	var rootTotal int64
	byName := make(map[string]int64)
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			rootTotal += s.End - s.Start
		}
		byName[s.Name] += self[s.ID]
	}
	out := make(map[string]float64, len(byName))
	if rootTotal == 0 {
		return out
	}
	for name, t := range byName {
		out[name] = float64(t) / float64(rootTotal)
	}
	return out
}
