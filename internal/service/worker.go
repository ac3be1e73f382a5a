package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"anton/internal/core"
	"anton/internal/faults"
	"anton/internal/ledger"
	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/system"
)

// BuildSim constructs the execution engine a job spec describes: the
// system, the (optionally sharded) engine, and the deterministic initial
// velocities. A resumed job calls this too — the checkpoint restore then
// overwrites the seeded state, exactly as the uninterrupted run would
// have evolved it. Exported for antonaudit: a replay audit rebuilds the
// simulation from the spec a ledger's genesis record embeds.
func BuildSim(spec JobSpec) (core.Sim, *core.Engine, *core.Sharded, error) {
	var s *system.System
	var err error
	if spec.System == "small" {
		s, err = system.Small(true, 1)
	} else {
		s, err = system.ByName(spec.System)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: building system: %w", err)
	}
	nodes := spec.Nodes
	if spec.Shards > 0 {
		nodes = spec.Shards
	}
	cfg := core.DefaultConfig(nodes)
	if spec.Ensemble == "nve" {
		cfg.TauT = 0
	} else {
		cfg.TargetT = spec.Temperature
	}
	var eng *core.Engine
	var sh *core.Sharded
	if spec.Shards > 0 {
		sh, err = core.NewSharded(s, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("service: building sharded engine: %w", err)
		}
		eng = sh.Engine()
	} else {
		eng, err = core.NewEngine(s, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("service: building engine: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	eng.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	if sh != nil {
		return sh, eng, sh, nil
	}
	return eng, eng, nil, nil
}

// worker is one pool goroutine: it drains the queue until the queue
// closes (daemon stop).
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		id, ok := d.q.pop()
		if !ok {
			return
		}
		d.busy.Add(1)
		d.runJob(id)
		d.busy.Add(-1)
	}
}

// deadlineFor computes the job's wall-clock cutoff: the spec override
// wins, else the daemon default, else none. Anchored at the *first*
// StartedAt, so the budget spans retries — a job cannot launder its
// deadline by failing.
func (d *Daemon) deadlineFor(js *JobStatus) time.Time {
	budget := d.cfg.JobDeadline
	if js.Spec.DeadlineSec > 0 {
		budget = time.Duration(js.Spec.DeadlineSec) * time.Second
	}
	if budget <= 0 {
		return time.Time{}
	}
	return js.StartedAt.Add(budget)
}

// runJob owns one job attempt end to end: build, resume, chunked
// stepping with durable checkpoints, telemetry publishing, and the
// terminal status write. The durability contract is enforced here: every
// chunk boundary persists checkpoint → ledger commit → status (in that
// order — a status record never points past its checkpoint, and a
// committed ledger never trails its checkpoint), so a daemon death OR an
// injected storage crash at any instant leaves a resumable job that
// finishes bitwise identical to an uninterrupted run.
//
// Failures route through supervise: storage crashes abandon the job to
// the next daemon's recovery scan, transient storage faults requeue it
// with backoff, poisoned artifacts quarantine it, everything else fails
// it permanently.
func (d *Daemon) runJob(id string) {
	js, ok := d.store.Get(id)
	if !ok || js.State != StateQueued {
		return
	}
	if d.jobCanceled(id) {
		d.finish(&js, StateCanceled, nil)
		return
	}

	// Progress heartbeat for the stall supervisor: touched at start and
	// at every chunk boundary, dropped when this attempt ends.
	beat := &jobBeat{}
	beat.touch()
	d.beats.Store(id, beat)
	defer d.beats.Delete(id)

	js.State = StateRunning
	if js.StartedAt.IsZero() {
		js.StartedAt = time.Now().UTC()
	}
	js.Attempts++
	if err := d.retryPersist(id, func() error { return d.store.Put(js) }); err != nil {
		d.supervise(&js, fmt.Errorf("persisting running state: %w", err))
		return
	}
	deadline := d.deadlineFor(&js)

	sim, eng, sh, err := BuildSim(js.Spec)
	if err != nil {
		d.finish(&js, StateFailed, err)
		return
	}
	if sh != nil {
		defer sh.Close()
	}

	// Resume: a persisted checkpoint means this job was interrupted (or
	// the daemon was). The read goes through the fault plane (with
	// retries — a flaky disk must not forfeit a resumable job); the
	// restore validates fingerprint + CRC before mutating anything. A
	// file that reads fine but fails validation is damaged at rest:
	// quarantine, never silently restart from step 0 — that would burn
	// the wall-clock budget re-computing a trajectory the operator
	// believes is half done.
	ckptPath := d.store.CheckpointPath(id)
	resumed := false
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		var blob []byte
		err := d.retryPersist(id, func() error {
			var rerr error
			blob, rerr = d.fs.ReadFile(ckptPath)
			return rerr
		})
		if err != nil {
			d.supervise(&js, fmt.Errorf("reading checkpoint: %w", err))
			return
		}
		if err := sim.RestoreCheckpoint(bytes.NewReader(blob)); err != nil {
			d.supervise(&js, poisonedErr(fmt.Errorf("resuming from checkpoint: %w", err)))
			return
		}
		js.Resumes++
		js.ResumedFrom = sim.StepCount()
		resumed = true
		d.log.Info("job resumed from checkpoint", "job", id, "step", sim.StepCount())
	}

	// The run ledger is part of the durability contract: a fresh job
	// opens its provenance chain with a genesis record; a resumed job
	// audits the existing chain first and stamps a resume record. A
	// tampered or torn-beyond-repair chain poisons the job — resuming
	// would extend a history that can no longer be trusted.
	lw, err := d.openJobLedger(&js, eng, resumed)
	if err != nil {
		err = fmt.Errorf("run ledger: %w", err)
		if resumed && !faults.IsCrash(err) && !transientFault(err) {
			err = poisonedErr(err)
		}
		d.supervise(&js, err)
		return
	}
	defer func() {
		if err := lw.Close(); err != nil {
			d.log.Error("close ledger", "job", id, "err", err)
		}
	}()
	tap := core.AttachLedger(eng, lw, 0)

	if js.Spec.Chaos != "" {
		spec, err := faults.ParseSpec(js.Spec.Chaos) // validated at submit
		if err != nil {
			d.finish(&js, StateFailed, err)
			return
		}
		fcfg := core.FaultConfig{
			Plane:           faults.New(spec, sh.Shards()),
			CheckpointEvery: js.Spec.CheckpointEvery,
			CheckpointPath:  ckptPath,
			OnRecovery: func(ev core.RecoveryEvent) {
				if err := lw.AppendRecovery(ledger.Recovery{
					DetectedStep: ev.DetectedStep,
					RestoredStep: ev.RestoredStep,
					Crashed:      ev.Crashed,
					Adopted:      ev.Adopted,
					Spurious:     ev.Spurious,
				}); err != nil {
					d.log.Error("ledger recovery record", "job", id, "err", err)
				}
			},
		}
		if err := sh.EnableFaults(fcfg); err != nil {
			d.finish(&js, StateFailed, err)
			return
		}
		if err := lw.AppendFaults(int64(sim.StepCount()), spec.String(), spec.Seed); err != nil {
			d.supervise(&js, fmt.Errorf("run ledger: %w", err))
			return
		}
	}

	// Per-job telemetry: the same /metrics, /healthz, /trace surface the
	// CLI serves per run, published into the daemon's TelemetrySet and
	// routed at /api/v1/jobs/{id}/{endpoint}. The surface outlives the
	// job so terminal states stay scrapeable.
	tel := d.tset.Acquire(id)
	rec := obs.NewRecorder()
	eng.Observe(rec)
	tracer := obs.NewTracer(4096)
	eng.Trace(tracer)
	watch := core.NewWatch(eng, health.DefaultConfig(), 10)
	if sh != nil && js.Spec.Chaos != "" {
		watch.WatchTransport(sh.TransportCounts)
	}
	publish := func() {
		tel.PublishSnapshot(rec.Snapshot())
		tel.PublishSample(eng.TelemetrySample())
		tel.PublishHealth(watch.Registry().Status(obs.SchemaVersion))
		if err := tel.PublishTrace(tracer); err != nil {
			d.log.Error("publish trace", "job", id, "err", err)
		}
	}

	// persist seals one chunk boundary: serialize the checkpoint once,
	// write it through the fault plane (retried), ledger it + any latched
	// alerts, commit the batch (the commit fsyncs, so everything up to
	// this boundary is durable before the status record can claim it),
	// then persist status. The ledger writer retries its own appends with
	// rollback, so a re-driven stage never double-appends; re-recording
	// the checkpoint after a commit failure is harmless (duplicate
	// checkpoint records agree, and audit tolerates agreeing duplicates).
	persist := func() error {
		var buf bytes.Buffer
		if err := sim.WriteCheckpoint(&buf); err != nil {
			return fmt.Errorf("serializing checkpoint: %w", err)
		}
		if err := d.retryPersist(id, func() error { return d.fs.WriteFile(ckptPath, buf.Bytes()) }); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		if err := tap.RecordCheckpoint(ckptPath); err != nil {
			return fmt.Errorf("ledgering checkpoint: %w", err)
		}
		for _, a := range watch.Drain() {
			if err := lw.AppendAlert(a.Step, ledger.Alert{
				Monitor:   a.Monitor,
				Severity:  a.Severity.String(),
				Value:     a.Value,
				Threshold: a.Threshold,
				Message:   a.Message,
			}); err != nil {
				return fmt.Errorf("ledgering alert: %w", err)
			}
		}
		if err := lw.Commit(); err != nil {
			return fmt.Errorf("committing ledger: %w", err)
		}
		js.Step = sim.StepCount()
		js.Digest = fmt.Sprintf("%016x", sim.StateDigest())
		js.Temperature = eng.Temperature()
		js.TotalEnergy = eng.TotalEnergy()
		if err := d.retryPersist(id, func() error { return d.store.Put(js) }); err != nil {
			return fmt.Errorf("persisting status: %w", err)
		}
		beat.touch()
		return nil
	}

	for sim.StepCount() < js.Spec.Steps {
		// Daemon draining? A graceful stop persists the boundary we just
		// reached; a kill persists nothing (the previous boundary's
		// checkpoint is the resume point — that is the contract under
		// test). Either way the job stays "running" on disk, which is
		// what recovery re-queues.
		select {
		case <-d.ctx.Done():
			if d.graceful.Load() {
				if err := persist(); err != nil {
					d.log.Error("drain checkpoint", "job", id, "err", err)
				}
			}
			return
		default:
		}
		if d.jobCanceled(id) {
			if err := persist(); err != nil {
				d.log.Error("cancel checkpoint", "job", id, "err", err)
			}
			d.finish(&js, StateCanceled, nil)
			publish()
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// Past the wall-clock budget: permanent failure, not a retry —
			// requeueing a job that is out of time would spin forever.
			d.finish(&js, StateFailed, fmt.Errorf("deadline exceeded after %s (at step %d of %d)",
				time.Since(js.StartedAt).Round(time.Millisecond), sim.StepCount(), js.Spec.Steps))
			publish()
			return
		}
		chunk := js.Spec.CheckpointEvery
		if rem := js.Spec.Steps - sim.StepCount(); chunk > rem {
			chunk = rem
		}
		sim.Step(chunk)
		if sh != nil {
			if err := sh.Err(); err != nil {
				d.finish(&js, StateFailed, fmt.Errorf("sharded engine parked: %w", err))
				return
			}
		}
		if d.ctx.Err() != nil && !d.graceful.Load() {
			// Killed mid-chunk: abandon this boundary unpersisted, exactly
			// like a SIGKILL between checkpoint writes. The previous
			// boundary's checkpoint is the resume point.
			return
		}
		if err := persist(); err != nil {
			d.supervise(&js, err)
			return
		}
		publish()
	}

	// The status record can trail the checkpoint by one boundary (a crash
	// between the checkpoint/ledger stage and the status stage leaves
	// exactly that cut — the persist order guarantees it is the only
	// possible skew). A resume that lands on the final step skips the
	// loop entirely, so refresh the completion fields from the live
	// engine rather than trusting the possibly-stale record.
	js.Step = sim.StepCount()
	js.Digest = fmt.Sprintf("%016x", sim.StateDigest())
	js.Temperature = eng.Temperature()
	js.TotalEnergy = eng.TotalEnergy()

	// A dead ledger never stops the dynamics, but it does gate "done":
	// a run whose provenance chain has a hole is not auditable, and done
	// certifies auditability. A transiently dead writer requeues — the
	// re-run resumes from the final checkpoint and re-commits the chain.
	if err := tap.Err(); err != nil {
		d.supervise(&js, fmt.Errorf("run ledger: %w", err))
		return
	}
	d.finish(&js, StateDone, nil)
	publish()
	d.log.Info("job finished", "job", id, "steps", js.Step, "digest", js.Digest,
		"attempts", js.Attempts)
}

// finish writes a terminal state (or the success reset of the failure
// counter). Persistence here retries transient faults like any other
// stage; a storage crash can only be logged — the job's checkpoint is
// still on disk, so the next daemon's recovery scan re-runs the tail
// idempotently.
func (d *Daemon) finish(js *JobStatus, state JobState, cause error) {
	js.State = state
	js.FinishedAt = time.Now().UTC()
	if state == StateDone {
		js.Failures = 0
	}
	if cause != nil {
		js.Error = cause.Error()
		d.log.Error("job failed", "job", js.ID, "state", state, "err", cause)
	}
	if err := d.retryPersist(js.ID, func() error { return d.store.Put(*js) }); err != nil {
		d.log.Error("persist terminal state", "job", js.ID, "err", err)
	}
}
