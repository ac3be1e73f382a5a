package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTelemetryLifecycle: the orderings a multi-tenant daemon produces —
// Shutdown before any Serve, Serve after Shutdown, double and concurrent
// Shutdown — must all be safe, deterministic and leak-free. Run under
// -race (scripts/verify.sh gates on it).
func TestTelemetryLifecycle(t *testing.T) {
	ctx := context.Background()

	t.Run("shutdown-before-serve", func(t *testing.T) {
		tel := NewTelemetry()
		if err := tel.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown before serve: %v", err)
		}
		// A later ListenAndServe must not bind a listener nothing will
		// ever stop: it returns nil promptly instead of blocking.
		done := make(chan error, 1)
		go func() { done <- tel.ListenAndServe("127.0.0.1:0") }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("ListenAndServe after shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ListenAndServe after shutdown did not return")
		}
	})

	t.Run("serve-after-shutdown", func(t *testing.T) {
		tel := NewTelemetry()
		if err := tel.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		if err := tel.Serve(ln); err != nil {
			t.Fatalf("Serve after shutdown: %v", err)
		}
		// The orphaned listener is closed, not leaked.
		if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			t.Fatal("listener still accepting after Serve-after-Shutdown")
		}
	})

	t.Run("double-shutdown", func(t *testing.T) {
		tel := NewTelemetry()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- tel.Serve(ln) }()
		waitTelemetryUp(t, ln.Addr().String())
		if err := tel.Shutdown(ctx); err != nil {
			t.Fatalf("first shutdown: %v", err)
		}
		if err := tel.Shutdown(ctx); err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Fatalf("Serve returned %v after shutdown, want nil", err)
		}
	})

	t.Run("concurrent-shutdown", func(t *testing.T) {
		tel := NewTelemetry()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- tel.Serve(ln) }()
		waitTelemetryUp(t, ln.Addr().String())
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tel.Shutdown(ctx); err != nil {
					t.Errorf("concurrent shutdown: %v", err)
				}
			}()
		}
		wg.Wait()
		if err := <-served; err != nil {
			t.Fatalf("Serve returned %v, want nil", err)
		}
	})
}

func waitTelemetryUp(t *testing.T, addr string) {
	t.Helper()
	url := "http://" + addr + "/healthz"
	for i := 0; ; i++ {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		if i > 200 {
			t.Fatalf("telemetry never came up at %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTelemetrySet: keyed registration, routing, and 404s for unknown
// keys/endpoints.
func TestTelemetrySet(t *testing.T) {
	set := NewTelemetrySet()
	if got := set.Get("a"); got != nil {
		t.Fatalf("Get on empty set = %v, want nil", got)
	}
	ta := set.Acquire("a")
	if ta == nil || set.Acquire("a") != ta {
		t.Fatal("Acquire is not stable per key")
	}
	set.Acquire("b")
	if keys := set.Keys(); !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("Keys = %v, want [a b]", keys)
	}

	ta.PublishSample(StepSample{Step: 42, Temperature: 300})

	get := func(key, ep string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/"+ep, nil)
		set.ServeEndpoint(w, r, key, ep)
		return w
	}
	if w := get("a", "metrics"); w.Code != http.StatusOK {
		t.Fatalf("metrics for a: %d", w.Code)
	}
	if w := get("a", "healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz for a: %d", w.Code)
	}
	if w := get("a", "trace"); w.Code != http.StatusNotFound {
		t.Fatalf("trace with no publish: %d, want 404", w.Code)
	}
	if w := get("zzz", "metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", w.Code)
	}
	if w := get("a", "nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown endpoint: %d, want 404", w.Code)
	}

	set.Drop("a")
	if w := get("a", "metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("dropped key still routed: %d", w.Code)
	}
	set.Drop("a") // idempotent
}

// TestTelemetrySetDropRace: Drop and Retire racing Acquire, publishes
// and ServeEndpoint across many keys must be data-race free (the
// verify.sh obs gate runs this under -race). Requests resolve to either
// the live surface or a 404 — never a torn read.
func TestTelemetrySetDropRace(t *testing.T) {
	set := NewTelemetrySet()
	keys := []string{"job-1", "job-2", "job-3", "job-4"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for _, k := range keys {
		wg.Add(2)
		// Publisher: acquire and publish in a loop (a worker's life).
		go func(k string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tel := set.Acquire(k)
				tel.PublishSample(StepSample{Step: 1})
			}
		}(k)
		// Reaper: retire and drop the same key concurrently.
		go func(k string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set.Retire(k)
				set.Drop(k)
			}
		}(k)
	}
	// Churner: finish more jobs than the set retains, so evictions run
	// concurrently with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("done-%d", i%(2*RetainedTerminal))
			set.Acquire(k).PublishSample(StepSample{Step: 1})
			set.Retire(k)
		}
	}()
	// Scrapers: route requests across all keys while the churn runs.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					w := httptest.NewRecorder()
					r := httptest.NewRequest("GET", "/metrics", nil)
					set.ServeEndpoint(w, r, k, "metrics")
					if w.Code != http.StatusOK && w.Code != http.StatusNotFound {
						t.Errorf("racing scrape of %s: %d", k, w.Code)
						return
					}
				}
				set.Keys()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestTelemetrySetDropServes404: after a drop, every per-job endpoint
// answers 404 (not a stale surface), and re-acquiring the key starts a
// fresh surface with none of the old publishes.
func TestTelemetrySetDropServes404(t *testing.T) {
	set := NewTelemetrySet()
	tel := set.Acquire("job-9")
	tel.PublishSample(StepSample{Step: 7, Temperature: 300})

	get := func(ep string) int {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/"+ep, nil)
		set.ServeEndpoint(w, r, "job-9", ep)
		return w.Code
	}
	for _, ep := range []string{"metrics", "healthz"} {
		if code := get(ep); code != http.StatusOK {
			t.Fatalf("%s before drop: %d", ep, code)
		}
	}
	set.Drop("job-9")
	for _, ep := range []string{"metrics", "healthz", "trace"} {
		if code := get(ep); code != http.StatusNotFound {
			t.Fatalf("%s after drop: %d, want 404", ep, code)
		}
	}
	// A fresh Acquire under the same key is a new, empty surface: its
	// healthz has no published health yet, so it must not leak the old
	// surface's state.
	if set.Acquire("job-9") == tel {
		t.Fatal("Acquire after Drop returned the dropped surface")
	}
}

// TestTelemetrySetRetention: retired (terminal) surfaces are kept only
// for the RetainedTerminal most recent keys, the newest terminal one
// still serves its trace, and a surface that was never retired — a
// running job's — survives any number of retirements around it.
func TestTelemetrySetRetention(t *testing.T) {
	set := NewTelemetrySet()
	running := set.Acquire("running")
	running.PublishSample(StepSample{Step: 1})
	trace := func(key string) int {
		w := httptest.NewRecorder()
		set.ServeEndpoint(w, httptest.NewRequest("GET", "/trace", nil), key, "trace")
		return w.Code
	}
	const extra = 5
	for i := 0; i < RetainedTerminal+extra; i++ {
		key := fmt.Sprintf("job-%d", i)
		tel := set.Acquire(key)
		if err := tel.PublishTrace(NewTracer(16)); err != nil {
			t.Fatal(err)
		}
		set.Retire(key)
		if trace(key) != http.StatusOK {
			t.Fatalf("newest terminal %s: trace not served", key)
		}
		if n := len(set.Keys()); n > RetainedTerminal+1 {
			t.Fatalf("after %d jobs the set holds %d surfaces, want at most %d", i+1, n, RetainedTerminal+1)
		}
	}
	if set.Get("running") != running {
		t.Fatal("running surface evicted")
	}
	for i := 0; i < extra; i++ {
		if code := trace(fmt.Sprintf("job-%d", i)); code != http.StatusNotFound {
			t.Fatalf("evicted job-%d: trace %d, want 404", i, code)
		}
	}
	if got := len(set.Keys()); got != RetainedTerminal+1 {
		t.Fatalf("set holds %d surfaces, want %d", got, RetainedTerminal+1)
	}

	// Re-acquiring a retired key makes it live again: it is not evicted
	// by later retirements; retiring twice keeps one entry.
	last := fmt.Sprintf("job-%d", RetainedTerminal+extra-1)
	set.Acquire(last)
	set.Retire("running")
	set.Retire("running")
	for i := 0; i < 2*RetainedTerminal; i++ {
		key := fmt.Sprintf("later-%d", i)
		set.Acquire(key)
		set.Retire(key)
	}
	if set.Get(last) == nil {
		t.Fatal("re-acquired surface evicted")
	}
	if set.Get("running") != nil {
		t.Fatal("retired surface outlived RetainedTerminal newer retirements")
	}
	set.Retire("absent") // no-op
	if set.Get("absent") != nil {
		t.Fatal("Retire created a surface")
	}
}
