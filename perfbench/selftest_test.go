package main

// The self-test runs every workload for one MTS cycle per pass, or one
// job per client, and checks the benchmark's own contract. Run it from
// this directory:
//
//	go test -timeout 20m .

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// quick returns the options of a short traced run.
func quick(t *testing.T, workload string) options {
	return options{workload: workload, seed: 1, seconds: 0.001, trace: true, outDir: t.TempDir(), cycles: 1}
}

func metricMap(ms []metric) map[string]metric {
	out := make(map[string]metric)
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// TestDefinitionMatchesProgram checks that BENCHMARK.json names the
// workloads and the gated metrics, with their units, that the program
// emits.
func TestDefinitionMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit string }
		units map[string]string
	}{{def.EndToEnd, endToEndUnits}, {def.PerLayer, layerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, program gates %d", len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s [%s]: program has %q", m.Name, m.Unit, u)
			}
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload traced and checks
// that every named metric is emitted with its unit, that the summary
// line carries exactly the gated names, and that every check passed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	extra := map[string][]string{
		"shard512": {"shard.step_ms_p50", "shard.blocked_ms_per_shard_step", "shard.overlap_ms_per_step",
			"shard.raw_bytes_per_step", "shard.wire_bytes_per_step", "shard.messages_per_step"},
		"service-mix": {"service.submit_ms_p50", "service.queue_wait_s_p50", "service.run_s_p50",
			"service.notify_ms_p50", "service.persist_retries", "service.requeues", "service.new_start_ms",
			"shard.messages_per_step"},
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep, err := run(quick(t, w))
			if err != nil {
				t.Fatal(err)
			}
			e2e, layers := metricMap(rep.EndToEnd), metricMap(rep.Layers)
			for name, unit := range endToEndUnits {
				if m, ok := e2e[name]; !ok || m.Unit != unit || m.Samples < 1 {
					t.Errorf("end-to-end %s [%s] missing or wrong: %+v", name, unit, m)
				}
			}
			for name, unit := range layerUnits {
				if m, ok := layers[name]; !ok || m.Unit != unit || m.Samples < 1 {
					t.Errorf("per-layer %s [%s] missing or wrong: %+v", name, unit, m)
				}
			}
			for _, name := range extra[w] {
				if m, ok := layers[name]; !ok || m.Unit == "" {
					t.Errorf("per-layer %s missing: %+v", name, m)
				}
			}
			if w == "service-mix" {
				if _, ok := e2e["jobs_per_hour"]; !ok {
					t.Error("jobs_per_hour missing")
				}
			}

			traced := rep.summary()
			rep.Traced = false
			untraced := rep.summary()
			for _, c := range []struct {
				got   summary
				units map[string]string
			}{{traced, layerUnits}, {untraced, endToEndUnits}} {
				if !c.got.Correct || c.got.Failed != 0 || c.got.Attempted < 1 {
					t.Errorf("summary not correct: %+v", c.got)
				}
				if got, want := keys(c.got.Metrics), keys(c.units); got != want {
					t.Errorf("summary metrics %s, want %s", got, want)
				}
				for name, m := range c.got.Metrics {
					if m.Value == 0 || math.IsNaN(m.Value) || m.Value == math.MaxFloat64 {
						t.Errorf("summary metric %s = %v", name, m.Value)
					}
				}
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check failed: %+v", c)
				}
			}
			if len(rep.Spans) == 0 || len(rep.SelfMs) == 0 || len(rep.Overhead) == 0 {
				t.Errorf("traced run without spans, self times or overhead")
			}
			if len(rep.Nondeterministic) != 0 {
				t.Errorf("nondeterministic counts: %v", rep.Nondeterministic)
			}
			if w == "service-mix" && !hasCheck(rep, "antond idle after the mix") {
				t.Error("daemon left with busy workers or queued jobs")
			}
		})
	}
}

// TestWrongReferenceRaisesFailedRatio checks that a reference digest
// that does not match counts as a failed run.
func TestWrongReferenceRaisesFailedRatio(t *testing.T) {
	for _, w := range []string{"shard512", "service-mix"} {
		t.Run(w, func(t *testing.T) {
			opt := quick(t, w)
			opt.trace, opt.corruptRef = false, true
			rep, err := run(opt)
			if err != nil {
				t.Fatal(err)
			}
			s := rep.summary()
			if s.Correct || s.Failed == 0 {
				t.Fatalf("wrong reference not counted: %+v", s)
			}
			if w == "service-mix" && !hasCheck(rep, "antond idle after the mix") {
				t.Error("daemon left with busy workers or queued jobs")
			}
		})
	}
}

func hasCheck(rep *report, what string) bool {
	for _, c := range rep.Checks {
		if c.What == what {
			return c.OK
		}
	}
	return false
}

func keys[V any](m map[string]V) string { return strings.Join(sortedKeys(m), ",") }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.75); got != 3.25 {
		t.Errorf("p75 = %v, want 3.25", got)
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0.75); !math.IsInf(got, 1) {
		t.Errorf("p75 with a failed job = %v, want +Inf", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.pass", StartMs: 0, EndMs: 10},
		{ID: 2, Parent: 1, Name: "core.step", StartMs: 1, EndMs: 4},
		{ID: 3, Parent: 1, Name: "core.step", StartMs: 3, EndMs: 6},
		{ID: 4, Parent: 2, Name: "fft.roundtrip", StartMs: 2, EndMs: 3},
	}
	got := tr.selfByLayer()
	want := map[string]float64{"bench": 5, "core": 5, "fft": 1}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
