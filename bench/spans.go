package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as the traced run records it.
// Spans of one request (or one sweep) share a Trace id; Parent is the id
// of the span that caused this one (0 for a root).
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Trace  uint64    `json:"trace"`
	Layer  string    `json:"layer"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// newID reserves a span id, for a parent whose children finish first.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; s.ID is assigned when zero.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		start, end := k.Start, k.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if !end.After(start) {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = start, end, true
		case start.After(curEnd):
			total += curEnd.Sub(curStart)
			curStart, curEnd = start, end
		case end.After(curEnd):
			curEnd = end
		}
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// writeSpans writes spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readSpans reads a file written by writeSpans.
func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	err = json.Unmarshal(data, &spans)
	return spans, err
}
