package obs

import (
	"net/http"
	"slices"
	"sort"
	"sync"
)

// TelemetrySet multiplexes many Telemetry surfaces behind one HTTP
// server. The per-run CLI binds one Telemetry to one listener; a
// multi-tenant daemon instead keeps one surface per job and routes
// /jobs/{id}/metrics-style requests here. Surfaces outlive their jobs on
// purpose: a completed job's last published snapshot stays scrapeable
// after Retire, but only for the RetainedTerminal most recently retired
// keys — older ones are dropped and answer 404, so a long-lived daemon's
// memory does not grow with every job it has ever finished (each surface
// holds its job's pre-rendered trace, tens of KB). Surfaces that were
// never retired, the running jobs', are never evicted.
//
// The set is safe for concurrent use: workers publish into their job's
// surface while HTTP handlers resolve and read others.
type TelemetrySet struct {
	mu      sync.RWMutex
	m       map[string]*Telemetry
	retired []string // retired keys still in m, oldest first
}

// RetainedTerminal is how many retired surfaces a TelemetrySet keeps:
// enough to scrape the last few finished jobs, few enough that their
// traces stay a small share of a daemon's heap.
const RetainedTerminal = 8

// NewTelemetrySet builds an empty set.
func NewTelemetrySet() *TelemetrySet {
	return &TelemetrySet{m: make(map[string]*Telemetry)}
}

// Acquire returns the surface for key, creating it if absent. A retired
// key acquired again is live again: it is no longer eligible for
// eviction until the next Retire.
func (s *TelemetrySet) Acquire(key string) *Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[key]
	if !ok {
		t = NewTelemetry()
		s.m[key] = t
	}
	s.unretire(key)
	return t
}

// Retire marks key's surface terminal: it stays readable, and is dropped
// once RetainedTerminal keys have been retired after it. Retiring an
// absent key is a no-op.
func (s *TelemetrySet) Retire(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		return
	}
	s.unretire(key)
	s.retired = append(s.retired, key)
	if n := len(s.retired) - RetainedTerminal; n > 0 {
		for _, k := range s.retired[:n] {
			delete(s.m, k)
		}
		s.retired = append(s.retired[:0], s.retired[n:]...)
	}
}

// unretire removes key from the retired list; the caller holds mu.
func (s *TelemetrySet) unretire(key string) {
	s.retired = slices.DeleteFunc(s.retired, func(k string) bool { return k == key })
}

// Get returns the surface for key, or nil.
func (s *TelemetrySet) Get(key string) *Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// Drop removes the surface for key. Dropping an absent key is a no-op.
func (s *TelemetrySet) Drop(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.unretire(key)
	s.mu.Unlock()
}

// Keys lists the registered keys in sorted order.
func (s *TelemetrySet) Keys() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ServeEndpoint routes one request to the named endpoint ("metrics",
// "healthz" or "trace" — the same three the standalone Telemetry serves)
// of the surface registered under key. Unknown keys and endpoints answer
// 404, so a daemon can delegate its {id}/{endpoint} route here verbatim.
func (s *TelemetrySet) ServeEndpoint(w http.ResponseWriter, r *http.Request, key, endpoint string) {
	t := s.Get(key)
	if t == nil {
		http.Error(w, "no telemetry for "+key, http.StatusNotFound)
		return
	}
	switch endpoint {
	case "metrics":
		t.serveMetrics(w, r)
	case "healthz":
		t.serveHealthz(w, r)
	case "trace":
		t.serveTrace(w, r)
	default:
		http.Error(w, "unknown telemetry endpoint "+endpoint, http.StatusNotFound)
	}
}
