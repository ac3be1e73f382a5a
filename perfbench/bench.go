package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// bench is one run's state: options, tracer, heap sampler and the
// report being filled in.
type bench struct {
	opt     options
	scratch string  // per-run scratch directory, removed at exit
	tr      *tracer // nil in untraced runs
	heap    heapSampler
	rep     *report
}

// e2e records an end-to-end metric.
func (b *bench) e2e(name string, v float64, unit string, n int, note string) {
	b.rep.EndToEnd = append(b.rep.EndToEnd, metric{name, finite(v), unit, n, note})
}

// layer records a per-layer metric of the traced pass.
func (b *bench) layer(name string, v float64, unit string, n int, note string) {
	b.rep.Layers = append(b.rep.Layers, metric{name, finite(v), unit, n, note})
}

// count records an exact count.
func (b *bench) count(name string, v int64) {
	if b.rep.Counts == nil {
		b.rep.Counts = make(map[string]int64)
	}
	b.rep.Counts[name] = v
}

// sameCount flags a count that differs between two runs of one seed
// inside this invocation (the measured run and its reference).
func (b *bench) sameCount(name string, measured, reference int64) {
	if measured != reference {
		b.rep.Nondeterministic = append(b.rep.Nondeterministic,
			fmt.Sprintf("%s: %d in the measured run, %d in the reference run", name, measured, reference))
	}
}

// verify records one bitwise digest check. With corruptRef set, the
// reference is deliberately wrong.
func (b *bench) verify(what string, digest, reference uint64, detail string) {
	if b.opt.corruptRef {
		reference ^= 1
	}
	b.rep.Checks = append(b.rep.Checks, check{
		What:      what,
		Digest:    fmt.Sprintf("%016x", digest),
		Reference: fmt.Sprintf("%016x", reference),
		OK:        digest == reference,
		Detail:    detail,
	})
}

// fail records a check that could not produce a digest at all.
func (b *bench) fail(what, detail string) {
	b.rep.Checks = append(b.rep.Checks, check{What: what, Detail: detail})
}

func (b *bench) info(name string, v float64) {
	if b.rep.Info == nil {
		b.rep.Info = make(map[string]float64)
	}
	b.rep.Info[name] = v
}

// startHeap collects garbage left by set-up and starts the heap sampler.
// Workloads call it when set-up ends.
func (b *bench) startHeap() {
	runtime.GC()
	b.heap.start()
}

// heapMetric stops the heap sampler and records the mean live heap and,
// not gated, its high-water mark. Workloads call it when their measured
// passes end, before probes and references allocate.
func (b *bench) heapMetric() {
	mb := b.heap.done()
	var sum float64
	for _, v := range mb {
		sum += v
	}
	note := fmt.Sprintf("live heap sampled every %v", heapEvery)
	b.e2e("heap_mb", sum/float64(len(mb)), "MB", len(mb), "mean "+note)
	b.e2e("peak_heap_mb", quantile(mb, 1), "MB", len(mb), "high-water "+note+"; not gated")
}

// finish compares the exact counts with earlier runs of the same seed
// and, traced, folds the spans.
func (b *bench) finish() {
	b.compareStoredCounts()
	if b.tr != nil {
		b.rep.Spans = b.tr.spans
		b.rep.SelfMs = b.tr.selfByLayer()
	}
}

// compareStoredCounts checks this run's exact counts against the counts
// an earlier run of the same workload and seed stored, flags every
// difference, and stores the counts when none were stored yet.
func (b *bench) compareStoredCounts() {
	path := filepath.Join(b.opt.outDir, "counts", fmt.Sprintf("%s-seed%d.json", b.opt.workload, b.opt.seed))
	data, err := os.ReadFile(path)
	if err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(data, &prev); err == nil {
			for _, k := range sortedKeys(b.rep.Counts) {
				if old, ok := prev[k]; ok && old != b.rep.Counts[k] {
					b.rep.Nondeterministic = append(b.rep.Nondeterministic,
						fmt.Sprintf("%s: %d now, %d in an earlier run of seed %d", k, b.rep.Counts[k], old, b.opt.seed))
				}
			}
			return
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "perfbench: reading stored counts: %v\n", err)
		return
	}
	data, err = json.MarshalIndent(b.rep.Counts, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: storing counts: %v\n", err)
	}
}

// heapSampler reads the live heap the last GC marked every heapEvery,
// from start until done. The GC runs inside steps and jobs, so the
// samples see more than the step and job boundaries.
type heapSampler struct {
	stop, exited chan struct{}
	mb           []float64
}

const heapEvery = 10 * time.Millisecond

func (h *heapSampler) start() {
	h.stop, h.exited = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.exited)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.mb = append(h.mb, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// done stops the sampler and returns the samples, in MB. It is safe to
// call more than once.
func (h *heapSampler) done() []float64 {
	if h.stop == nil {
		return nil
	}
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.exited
	return h.mb
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. +Inf samples (failed jobs) sort last and win any
// interpolation they take part in.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeIt returns how long fn took.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// durationsS converts durations to seconds.
func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
