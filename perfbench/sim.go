package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"anton"
	"anton/internal/core"
	"anton/internal/obs"
	"anton/internal/system"
)

// simSpec describes a simulation workload: which system, on which
// engine, and how the run is paced.
type simSpec struct {
	system string // system.ByName name, or "small" for the 645-atom small protein
	nodes  int    // core.DefaultConfig node count
	shards bool   // run core.NewSharded with nodes shards instead of core.NewEngine
	setups int    // set-ups timed for setup_s; the last one is run
	warmup int    // untimed steps before measuring; the exact counts cover them
	cycles int    // minimum measured MTS cycles per pass
}

// dtFs is the time step of core.DefaultConfig, in femtoseconds.
const dtFs = 2.5

// simRun is one constructed simulation.
type simRun struct {
	sim core.Sim
	eng *core.Engine
	sh  *core.Sharded // nil for the monolithic engine
}

func (r simRun) close() {
	if r.sh != nil {
		r.sh.Close()
	}
}

func buildSystem(name string) (*system.System, error) {
	if name == "small" {
		return system.Small(true, 1)
	}
	return system.ByName(name)
}

// newSim builds the system and the engine and seeds the velocities from
// the run seed. It returns the two layers' construction times.
func (b *bench) newSim(spec simSpec, shards bool, workers int, parent int) (r simRun, build, engine time.Duration, err error) {
	var s *system.System
	id := b.tr.begin("system.build", parent, 0)
	build = timeIt(func() { s, err = buildSystem(spec.system) })
	b.tr.end(id)
	if err != nil {
		return r, 0, 0, err
	}
	cfg := core.DefaultConfig(spec.nodes)
	cfg.Workers = workers
	id = b.tr.begin("core.new_engine", parent, 0)
	engine = timeIt(func() {
		if shards {
			r.sh, err = core.NewSharded(s, cfg)
			if err == nil {
				r.sim, r.eng = r.sh, r.sh.Engine()
			}
		} else {
			r.eng, err = core.NewEngine(s, cfg)
			r.sim = r.eng
		}
	})
	b.tr.end(id)
	if err != nil {
		return r, 0, 0, err
	}
	r.eng.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(b.opt.seed))))
	return r, build, engine, nil
}

// setupSim times spec.setups set-ups (system build plus engine
// construction), closes all but the last and returns that one.
func (b *bench) setupSim(spec simSpec) (simRun, error) {
	var run simRun
	var builds, engines, totals []time.Duration
	for i := 0; i < spec.setups; i++ {
		run.close()
		run = simRun{} // let the previous set-up be collected
		id := b.tr.begin("bench.setup", 0, 0)
		r, build, engine, err := b.newSim(spec, spec.shards, 0, id)
		b.tr.end(id)
		if err != nil {
			return simRun{}, err
		}
		run = r
		builds, engines, totals = append(builds, build), append(engines, engine), append(totals, build+engine)
	}
	b.e2e("setup_s", median(durationsS(totals)), "s", len(totals), "median of system build + engine construction")
	if b.opt.trace {
		b.layer("system.build_s", median(durationsS(builds)), "s", len(builds), "")
		b.layer("core.new_engine_s", median(durationsS(engines)), "s", len(engines), "")
	}
	return run, nil
}

// pass is one measured window of whole MTS cycles.
type pass struct {
	cycles      []time.Duration
	short, long []time.Duration // per-step times, traced passes only
}

func (p pass) steps(mts int) int { return len(p.cycles) * mts }

// simPass steps the run in whole MTS cycles until the window has passed
// and at least spec.cycles cycles were measured. before runs untimed
// ahead of each cycle.
func (b *bench) simPass(spec simSpec, r simRun, traced bool, before func()) pass {
	var p pass
	tr := b.tracerIf(traced)
	root := tr.begin("bench.pass", 0, 0)
	t0 := time.Now()
	minCycles := spec.cycles
	if b.opt.cycles > 0 {
		minCycles = b.opt.cycles
	}
	for len(p.cycles) < minCycles || time.Since(t0).Seconds() < b.opt.seconds {
		if before != nil {
			before()
		}
		p.cycle(r, tr, root)
	}
	tr.end(root)
	return p
}

// stepCycles steps the run a fixed number of steps in whole MTS cycles,
// traced when the run is.
func (b *bench) stepCycles(r simRun, steps, parent int) pass {
	var p pass
	for r.sim.StepCount()+r.eng.Cfg.MTSInterval <= steps {
		p.cycle(r, b.tr, parent)
	}
	if rest := steps - r.sim.StepCount(); rest > 0 {
		r.sim.Step(rest)
	}
	return p
}

// cycle runs and times one MTS cycle. Traced, every step is a span and
// is classified as long (it refreshed the mesh) or short.
func (p *pass) cycle(r simRun, tr *tracer, parent int) {
	mts := r.eng.Cfg.MTSInterval
	c0 := time.Now()
	if tr == nil {
		r.sim.Step(mts)
	} else {
		for i := 0; i < mts; i++ {
			mesh0 := r.eng.Stats.MeshInteractions
			id := tr.begin("core.step", parent, 0)
			d := timeIt(func() { r.sim.Step(1) })
			tr.end(id)
			if r.eng.Stats.MeshInteractions != mesh0 {
				p.long = append(p.long, d)
			} else {
				p.short = append(p.short, d)
			}
		}
	}
	p.cycles = append(p.cycles, time.Since(c0))
}

// tracerIf returns the tracer for a traced section, nil otherwise.
func (b *bench) tracerIf(traced bool) *tracer {
	if traced {
		return b.tr
	}
	return nil
}

// cycleMetrics reports the end-to-end metrics of a simulation pass: the
// rate from the median cycle, and the cycle latency.
func cycleMetrics(p pass, mts int) map[string]float64 {
	cyc := durationsS(p.cycles)
	return map[string]float64{
		"ns_per_day":    float64(mts) * dtFs * 1e-6 / median(cyc) * 86400,
		"latency_s_p50": median(cyc),
		"latency_s_p75": quantile(cyc, 0.75),
	}
}

// reportPass records the end-to-end metrics of the untraced pass and,
// traced, the step layer and the tracing overhead. It returns the
// untraced rate in ns/day.
func (b *bench) reportPass(untraced, traced pass, mts int) float64 {
	u := cycleMetrics(untraced, mts)
	n := len(untraced.cycles)
	const unit = "one MTS cycle (short + long step)"
	b.e2e("ns_per_day", u["ns_per_day"], "ns/day", n, fmt.Sprintf("from the median of %d MTS cycles (%d steps)", n, untraced.steps(mts)))
	b.e2e("latency_s_p50", u["latency_s_p50"], "s", n, unit)
	b.e2e("latency_s_p75", u["latency_s_p75"], "s", n, unit)
	if b.opt.trace {
		b.overhead(u, cycleMetrics(traced, mts))
		b.stepMetrics(traced, "")
	}
	return u["ns_per_day"]
}

// stepMetrics records the short and long step times of a traced pass.
func (b *bench) stepMetrics(p pass, note string) {
	short, long := median(durationsMs(p.short)), median(durationsMs(p.long))
	b.layer("core.step_short_ms_p50", short, "ms", len(p.short), "range-limited-only step "+note)
	b.layer("core.step_long_ms_p50", long, "ms", len(p.long), "step with mesh "+note)
	b.layer("core.mesh_extra_ms", long-short, "ms", len(p.long), "long - short "+note)
}

// overhead records traced minus untraced for each end-to-end metric, as
// a share of the untraced value.
func (b *bench) overhead(untraced, traced map[string]float64) {
	b.rep.Overhead = make(map[string]float64)
	for k, u := range untraced {
		b.rep.Overhead[k] = (traced[k] - u) / u
	}
}

// windowCounts records the exact htis and mesh counts of a fixed window
// of steps, which the seed fixes, and the per-step layer metrics made
// from them.
func (b *bench) windowCounts(st core.Stats, steps int, window string) {
	b.count("htis.pairs_considered", st.PairsConsidered)
	b.count("htis.pairs_matched", st.PairsMatched)
	b.count("htis.pairs_computed", st.PairsComputed)
	b.count("core.mesh_interactions", st.MeshInteractions)
	b.count("core.window_steps", int64(steps))
	if b.opt.trace {
		note := "exact, over " + window
		b.layer("htis.pairs_computed_per_step", float64(st.PairsComputed)/float64(steps), "count", steps, note)
		b.layer("htis.match_efficiency", st.MatchEfficiency(), "ratio", steps, note)
		b.layer("core.mesh_interactions_per_step", float64(st.MeshInteractions)/float64(steps), "count", steps, note)
	}
}

// runDHFR is the paper's headline system on the monolithic engine: 23,558
// atoms, 13 Å cutoff, 32³ mesh, core.DefaultConfig(8). It is pair-bound.
// The final state is checked against the monolithic engine with
// Workers=1: the last measured cycle is replayed from an in-memory
// checkpoint taken just before it, and the two digests must agree.
func runDHFR(b *bench) error {
	spec := simSpec{system: "DHFR", nodes: 8, setups: 3, warmup: 2, cycles: 3}
	r, err := b.setupSim(spec)
	if err != nil {
		return err
	}
	defer r.close()
	mts := r.eng.Cfg.MTSInterval

	b.tr.do("core.warmup", 0, func() { r.sim.Step(spec.warmup) })
	b.startHeap()
	b.windowCounts(r.eng.Stats, spec.warmup, fmt.Sprintf("the %d warm-up steps", spec.warmup))

	var ckpt bytes.Buffer
	var ckptErr error
	var before core.Stats
	keep := func() {
		ckpt.Reset()
		ckptErr = r.sim.WriteCheckpoint(&ckpt)
		before = r.eng.Stats
	}
	untraced := b.simPass(spec, r, false, keep)
	var traced pass
	if b.opt.trace {
		rec := attachRecorder(r.eng)
		traced = b.simPass(spec, r, true, keep)
		b.phaseMetrics(rec, traced.steps(mts), "")
	}
	rate := b.reportPass(untraced, traced, mts)
	b.heapMetric()

	if ckptErr != nil {
		return fmt.Errorf("checkpoint before the last cycle: %w", ckptErr)
	}
	last := r.eng.Stats
	if b.opt.trace {
		if err := b.layerProbes(r.sim, 32); err != nil {
			return err
		}
	}
	id := b.tr.begin("bench.reference", 0, 0)
	defer b.tr.end(id)
	ref, _, _, err := b.newSim(spec, false, 1, id)
	if err != nil {
		return err
	}
	if err := ref.sim.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		return fmt.Errorf("reference restore: %w", err)
	}
	b.tr.do("core.step", id, func() { ref.sim.Step(mts) })
	b.verify(fmt.Sprintf("dhfr final state at step %d", r.sim.StepCount()), r.sim.StateDigest(), ref.sim.StateDigest(),
		"reference: last cycle replayed with Workers=1")
	b.sameCount("htis.pairs_computed (last cycle)", last.PairsComputed-before.PairsComputed, ref.eng.Stats.PairsComputed)
	b.sameCount("core.mesh_interactions (last cycle)", last.MeshInteractions-before.MeshInteractions, ref.eng.Stats.MeshInteractions)

	m, err := anton.NewMachine(512)
	if err != nil {
		return err
	}
	// The machine model's projection for DHFR on a 512-node Anton (the
	// paper's Table 4: 16.4 µs/day), beside the measured software rate.
	b.info("model_dhfr_512_nodes_us_per_day", anton.ProjectRate(m, r.eng.Sys))
	b.info("measured_dhfr_us_per_day", rate/1000)
	return nil
}

// runShard512 is the 645-atom small protein on core.NewSharded with 512
// shards and the default shard pipeline. It is exchange-bound. The final
// state is checked against the monolithic engine run to the same step.
// Its per-layer exchange numbers come from the transport statistics; the
// obs phase numbers come from the monolithic reference, because the
// sharded engine bills mesh spreading to pair-match.
func runShard512(b *bench) error {
	spec := simSpec{system: "small", nodes: 512, shards: true, setups: 5, warmup: 10, cycles: 20}
	r, err := b.setupSim(spec)
	if err != nil {
		return err
	}
	defer r.close()
	mts := r.eng.Cfg.MTSInterval

	b.tr.do("core.warmup", 0, func() { r.sim.Step(spec.warmup) })
	b.startHeap()
	b.windowCounts(r.eng.Stats, spec.warmup, fmt.Sprintf("the %d warm-up steps", spec.warmup))
	x0, err := exchangeTotals(r.sh)
	if err != nil {
		return err
	}
	b.count("shard.raw_bytes", x0.raw)
	b.count("shard.wire_bytes", x0.wire)
	b.count("shard.messages", x0.messages)

	untraced := b.simPass(spec, r, false, nil)
	var traced pass
	if b.opt.trace {
		a, err := exchangeTotals(r.sh)
		if err != nil {
			return err
		}
		traced = b.simPass(spec, r, true, nil)
		z, err := exchangeTotals(r.sh)
		if err != nil {
			return err
		}
		b.exchangeMetrics(a, z, traced, mts, r.sh.Shards(), "")
	}
	b.reportPass(untraced, traced, mts)
	b.heapMetric()
	if b.opt.trace {
		if err := b.layerProbes(r.sim, 16); err != nil {
			return err
		}
	}

	id := b.tr.begin("bench.reference", 0, 0)
	defer b.tr.end(id)
	ref, _, _, err := b.newSim(spec, false, 0, id)
	if err != nil {
		return err
	}
	var rec *obs.Recorder
	if b.opt.trace {
		rec = attachRecorder(ref.eng)
	}
	steps := r.sim.StepCount()
	b.stepCycles(ref, steps, id)
	if rec != nil {
		b.phaseMetrics(rec, steps, "from the monolithic reference run")
	}
	b.verify(fmt.Sprintf("shard512 final state at step %d", steps), r.sim.StateDigest(), ref.sim.StateDigest(),
		"reference: monolithic engine")
	b.sameCount("htis.pairs_computed (whole run)", r.eng.Stats.PairsComputed, ref.eng.Stats.PairsComputed)
	b.sameCount("htis.pairs_considered (whole run)", r.eng.Stats.PairsConsidered, ref.eng.Stats.PairsConsidered)
	b.sameCount("core.mesh_interactions (whole run)", r.eng.Stats.MeshInteractions, ref.eng.Stats.MeshInteractions)
	return nil
}
