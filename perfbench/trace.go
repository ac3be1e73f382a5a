package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer of the program. Parent is the
// span that caused it (0 for a root); spans of one service job share
// Req.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; the methods of a nil *tracer do nothing, so untraced
// code paths call them unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartMs: now, EndMs: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMs = now
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent, 0)
	fn()
	t.end(id)
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// selfByLayer sums each closed span's self time — its duration minus
// the part its children cover — by layer, the span name up to its first
// dot.
func (t *tracer) selfByLayer() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndMs >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.EndMs < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.EndMs - s.StartMs - covered(children[s.ID], s.StartMs, s.EndMs)
	}
	return out
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartMs < spans[j].StartMs })
	total, reach := 0.0, lo
	for _, s := range spans {
		a, z := max(s.StartMs, reach), min(s.EndMs, hi)
		if z > a {
			total += z - a
			reach = z
		}
	}
	return total
}
