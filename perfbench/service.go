package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anton/internal/core"
	"anton/internal/obs"
	"anton/internal/service"
)

// mixSteps is the length of every service-mix job: two checkpoint chunks
// at the default cadence, so each job persists a mid-run checkpoint and
// its final one.
const mixSteps = 2 * service.DefaultCheckpointEvery

// mixClients is the closed loop's client count, one per CPU of the
// 2-CPU host the workload was sized on.
const mixClients = 2

// mixSpecs returns the job mix of a seed: two monolithic small-protein
// specs and one 8-shard spec, each with its own velocity seed drawn from
// the run seed. Clients cycle through them, so jobs run 2:1 monolithic to
// sharded.
func mixSpecs(seed int64) []service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]service.JobSpec, 3)
	for i := range specs {
		specs[i] = service.JobSpec{System: "small", Steps: mixSteps, Seed: 1 + rng.Int63n(1<<30)}
	}
	specs[2].Shards = 8
	return specs
}

// jobResult is one job as its client saw it.
type jobResult struct {
	spec    int
	latency time.Duration // POST sent → AwaitJob saw it terminal
	submit  time.Duration // POST round trip
	notify  time.Duration // AwaitJob return − FinishedAt
	queue   time.Duration // StartedAt − SubmittedAt
	run     time.Duration // FinishedAt − StartedAt
	status  service.JobStatus
	err     error
}

func (j jobResult) done() bool { return j.err == nil && j.status.State == service.StateDone }

// mixPass is one closed-loop window of the job mix.
type mixPass struct {
	jobs []jobResult
	wall time.Duration

	// busy is each client's time from the start of the window to the end
	// of its last job; rates are summed over clients, each over its own
	// busy time, so a client idling after its last job adds nothing.
	busy [mixClients]time.Duration
	done [mixClients]int
}

// runServiceMix runs antond in process: service.New on a scratch state
// directory, Start, and an HTTP server on loopback over Handler(). Two
// clients each POST a job, wait with Daemon.AwaitJob and GET the final
// status, then submit the next. Every job's final digest is checked
// against a direct service.BuildSim run of its spec.
func runServiceMix(b *bench) error {
	specs := mixSpecs(b.opt.seed)
	d, err := b.setupDaemons(specs[0])
	if err != nil {
		return err
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return d.Stop(ctx)
	}
	defer stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()

	b.startHeap()
	untraced := b.mixPass(d, base, specs, false)
	var traced mixPass
	if b.opt.trace {
		traced = b.mixPass(d, base, specs, true)
	}
	b.heapMetric()
	idle := awaitIdle(d, 10*time.Second)
	b.rep.Checks = append(b.rep.Checks, check{
		What:   "antond idle after the mix",
		OK:     idle,
		Detail: fmt.Sprintf("busy workers %d, queue depth %d", d.BusyWorkers(), d.QueueDepth()),
	})
	st := d.Stats()
	retries, requeues := st.PersistRetries.Load(), st.JobRequeues.Load()
	if err := stop(); err != nil {
		return err
	}

	u := mixMetrics(untraced)
	n := len(untraced.jobs)
	b.e2e("ns_per_day", u["ns_per_day"], "ns/day", n, fmt.Sprintf("simulated time of completed jobs, %.1f s window", untraced.wall.Seconds()))
	b.e2e("latency_s_p50", u["latency_s_p50"], "s", n, "job submit → observed done")
	b.e2e("latency_s_p75", u["latency_s_p75"], "s", n, "job submit → observed done")
	b.e2e("jobs_per_hour", u["jobs_per_hour"], "1/h", n, "completed jobs")
	if b.opt.trace {
		b.overhead(u, mixMetrics(traced))
		b.serviceMetrics(traced, retries, requeues)
	}
	return b.mixReferences(specs, append(untraced.jobs, traced.jobs...))
}

// setupDaemons times the set-up that precedes the mix's first step:
// daemon New+Start on an empty state directory, plus the construction of
// the first job's simulation (service.BuildSim of its spec), which the
// daemon's worker does before that job's first step. It stops every
// daemon but the last and returns that one.
func (b *bench) setupDaemons(first service.JobSpec) (*service.Daemon, error) {
	const setups = 7
	if err := first.Normalize(); err != nil {
		return nil, err
	}
	var d *service.Daemon
	var dir string
	var starts, totals []time.Duration
	for i := 0; i < setups; i++ {
		if d != nil {
			// Stop the previous daemon and delete its state, so every
			// set-up starts from the same near-empty parent directory.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := d.Stop(ctx)
			cancel()
			if err == nil {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(b.scratch, fmt.Sprintf("antond-%d", i))
		cfg := service.Config{
			StateDir: dir,
			Workers:  mixClients,
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
		var err error
		root := b.tr.begin("bench.setup", 0, 0)
		id := b.tr.begin("service.new_start", root, 0)
		start := timeIt(func() {
			if d, err = service.New(cfg); err == nil {
				d.Start()
			}
		})
		b.tr.end(id)
		if err != nil {
			b.tr.end(root)
			return nil, err
		}
		var sh *core.Sharded
		id = b.tr.begin("service.build_sim", root, 0)
		build := timeIt(func() { _, _, sh, err = service.BuildSim(first) })
		b.tr.end(id)
		b.tr.end(root)
		if sh != nil {
			sh.Close()
		}
		if err != nil {
			return nil, err
		}
		starts, totals = append(starts, start), append(totals, start+build)
	}
	b.e2e("setup_s", median(durationsS(totals)), "s", len(totals), "median of daemon New+Start + BuildSim of the first job")
	if b.opt.trace {
		b.layer("service.new_start_ms", median(durationsMs(starts)), "ms", len(starts), "daemon New+Start on an empty state directory")
	}
	return d, nil
}

// mixPass runs the closed loop until the window has passed and waits for
// every client's last job.
func (b *bench) mixPass(d *service.Daemon, base string, specs []service.JobSpec, traced bool) mixPass {
	tr := b.tracerIf(traced)
	client := &http.Client{Timeout: time.Minute}
	var (
		mu   sync.Mutex
		p    mixPass
		wg   sync.WaitGroup
		reqs atomic.Int64
	)
	t0 := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(t0).Seconds() < b.opt.seconds; k++ {
				idx := (mixClients*k + c) % len(specs)
				j := runJob(tr, int(reqs.Add(1)), client, d, base, specs[idx])
				j.spec = idx
				mu.Lock()
				p.jobs = append(p.jobs, j)
				if j.done() {
					p.done[c]++
				}
				mu.Unlock()
			}
			mu.Lock()
			p.busy[c] = time.Since(t0)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

// runJob submits one job over HTTP, waits for it and fetches its final
// status.
func runJob(tr *tracer, req int, client *http.Client, d *service.Daemon, base string, spec service.JobSpec) jobResult {
	var j jobResult
	root := tr.begin("service.job", 0, req)
	defer tr.end(root)
	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j
	}
	t0 := time.Now()
	id := tr.begin("service.submit", root, req)
	var sub service.JobStatus
	j.err = call(client, http.MethodPost, base+"/api/v1/jobs", body, http.StatusCreated, &sub)
	tr.end(id)
	j.submit = time.Since(t0)
	if j.err != nil {
		return j
	}
	id = tr.begin("service.await", root, req)
	final, ok := d.AwaitJob(sub.ID, 2*time.Minute, func(s service.JobStatus) bool { return s.State.Terminal() })
	tr.end(id)
	seen := time.Now()
	j.latency = seen.Sub(t0)
	if !ok {
		j.err = fmt.Errorf("job %s not terminal after 2m (state %s)", sub.ID, final.State)
		return j
	}
	id = tr.begin("service.get", root, req)
	j.err = call(client, http.MethodGet, base+"/api/v1/jobs/"+sub.ID, nil, http.StatusOK, &j.status)
	tr.end(id)
	j.queue = j.status.StartedAt.Sub(j.status.SubmittedAt)
	j.run = j.status.FinishedAt.Sub(j.status.StartedAt)
	j.notify = seen.Sub(j.status.FinishedAt)
	return j
}

// call makes one API request and decodes the JSON reply.
func call(client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// awaitIdle waits up to timeout for the pool to go idle: a worker marks
// itself idle just after it persists its job's terminal state, so the
// last AwaitJob can return a moment before that.
func awaitIdle(d *service.Daemon, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for d.BusyWorkers() != 0 || d.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// mixMetrics computes the end-to-end metrics of a pass. A job that did
// not finish done has an infinite latency: it misses every limit.
func mixMetrics(p mixPass) map[string]float64 {
	lat := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		lat[i] = math.Inf(1)
		if j.done() {
			lat[i] = j.latency.Seconds()
		}
	}
	var perHour float64
	for c := range p.busy {
		perHour += float64(p.done[c]) / p.busy[c].Hours()
	}
	return map[string]float64{
		"ns_per_day":    perHour * 24 * mixSteps * dtFs * 1e-6,
		"latency_s_p50": median(lat),
		"latency_s_p75": quantile(lat, 0.75),
		"jobs_per_hour": perHour,
	}
}

// serviceMetrics reports the service layer of the traced pass.
func (b *bench) serviceMetrics(p mixPass, retries, requeues int64) {
	var submit, queue, run, notify []time.Duration
	for _, j := range p.jobs {
		if j.done() {
			submit, queue = append(submit, j.submit), append(queue, j.queue)
			run, notify = append(run, j.run), append(notify, j.notify)
		}
	}
	n := len(submit)
	b.layer("service.submit_ms_p50", median(durationsMs(submit)), "ms", n, "HTTP POST round trip")
	b.layer("service.queue_wait_s_p50", median(durationsS(queue)), "s", n, "StartedAt - SubmittedAt")
	b.layer("service.run_s_p50", median(durationsS(run)), "s", n, "FinishedAt - StartedAt")
	b.layer("service.notify_ms_p50", median(durationsMs(notify)), "ms", n, "AwaitJob return - FinishedAt")
	b.layer("service.persist_retries", float64(retries), "count", 1, "Daemon.Stats, whole run")
	b.layer("service.requeues", float64(requeues), "count", 1, "Daemon.Stats, whole run")
}

// mixReferences runs every distinct spec directly through
// service.BuildSim, outside any timed window, and checks each job's final
// digest against its spec's. Traced, the direct runs also give the engine
// and shard-exchange layer metrics of the mix.
func (b *bench) mixReferences(specs []service.JobSpec, jobs []jobResult) error {
	root := b.tr.begin("bench.reference", 0, 0)
	defer b.tr.end(root)
	if b.opt.trace {
		if err := b.mixEngineProbe(root); err != nil {
			return err
		}
	}
	var rec *obs.Recorder
	if b.opt.trace {
		rec = obs.NewRecorder()
	}
	var monoStats core.Stats
	var mono pass
	refs := make([]uint64, len(specs))
	for i, spec := range specs {
		if err := spec.Normalize(); err != nil {
			return err
		}
		var sim core.Sim
		var eng *core.Engine
		var sh *core.Sharded
		var err error
		b.tr.do("service.build_sim", root, func() { sim, eng, sh, err = service.BuildSim(spec) })
		if err != nil {
			return err
		}
		run := simRun{sim: sim, eng: eng, sh: sh}
		if sh == nil && rec != nil {
			eng.Observe(rec)
		}
		p := b.stepCycles(run, spec.Steps, root)
		if sh == nil {
			monoStats = addStats(monoStats, eng.Stats)
			mono.cycles, mono.short, mono.long = append(mono.cycles, p.cycles...), append(mono.short, p.short...), append(mono.long, p.long...)
			if b.opt.trace && i == 0 {
				if err := b.layerProbes(sim, 16); err != nil {
					return err
				}
			}
		} else {
			if b.opt.trace {
				z, err := exchangeTotals(sh)
				if err != nil {
					sh.Close()
					return err
				}
				b.exchangeMetrics(exchange{}, z, p, eng.Cfg.MTSInterval, sh.Shards(), "from the 8-shard direct run")
			}
			sh.Close()
		}
		refs[i] = sim.StateDigest()
	}
	b.windowCounts(monoStats, 2*mixSteps, "the two monolithic direct runs")
	if b.opt.trace {
		b.stepMetrics(mono, "(monolithic direct runs)")
		b.phaseMetrics(rec, 2*mixSteps, "monolithic direct runs")
	}
	for _, j := range jobs {
		what := fmt.Sprintf("job %s (spec %d)", j.status.ID, j.spec)
		switch {
		case j.err != nil:
			b.fail(what, j.err.Error())
		case j.status.State != service.StateDone:
			b.fail(what, fmt.Sprintf("state %s: %s", j.status.State, j.status.Error))
		default:
			var got uint64
			if _, err := fmt.Sscanf(j.status.Digest, "%x", &got); err != nil {
				b.fail(what, "unreadable digest "+j.status.Digest)
				continue
			}
			b.verify(what, got, refs[j.spec], "reference: direct service.BuildSim run")
		}
	}
	return nil
}

// mixEngineProbe times the construction a monolithic mix job does inside
// the daemon, system build plus engine, outside it.
func (b *bench) mixEngineProbe(parent int) error {
	spec := simSpec{system: "small", nodes: service.DefaultNodes}
	var builds, engines []time.Duration
	for i := 0; i < 5; i++ {
		r, build, engine, err := b.newSim(spec, false, 0, parent)
		if err != nil {
			return err
		}
		r.close()
		builds, engines = append(builds, build), append(engines, engine)
	}
	b.layer("system.build_s", median(durationsS(builds)), "s", len(builds), "small protein, as a mix job builds it")
	b.layer("core.new_engine_s", median(durationsS(engines)), "s", len(engines), "monolithic, as a mix job builds it")
	return nil
}

func addStats(a, b core.Stats) core.Stats {
	a.Steps += b.Steps
	a.PairsConsidered += b.PairsConsidered
	a.PairsMatched += b.PairsMatched
	a.PairsComputed += b.PairsComputed
	a.MeshInteractions += b.MeshInteractions
	a.Migrations += b.Migrations
	return a
}
