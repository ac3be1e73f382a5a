// Command antonsim runs a molecular dynamics simulation of one of the
// paper's benchmark systems on a simulated Anton machine, reporting
// energies, hardware statistics (match efficiency, pair throughput) and
// the calibrated performance model's projection of the configuration's
// simulation rate.
//
// Usage:
//
//	antonsim -system gpW -nodes 8 -steps 50
//	antonsim -system small -steps 200 -metrics metrics.json -pprof localhost:6060
//	antonsim -system small -steps 500 -trace trace.json -trace-nodes -watch
//	antonsim -system small -steps 100000 -listen localhost:8777 -watch
//	antonsim -system small -shards 8 -steps 200 -chaos 'seed=7,drop=0.02,crashes=1'
//	antonsim -system small -steps 1000 -checkpoint run.ckpt
//	antonsim -system small -steps 1000 -checkpoint run.ckpt -resume run.ckpt
//	antonsim -list
//
// -resume restores a checkpoint written by -checkpoint and continues the
// run from its step count: -steps is the total step target, so a run
// interrupted at step 400 of 1000 resumes with the same command line and
// executes steps 401..1000, bitwise identical to an uninterrupted run
// (compare the printed state digests). The restore validates the
// checkpoint's configuration fingerprint and CRC before touching any
// engine state and refuses cleanly on mismatch.
//
// SIGINT/SIGTERM stop the run gracefully: the current report chunk
// finishes, a final checkpoint is flushed (with -checkpoint), and the
// telemetry server drains before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anton/internal/core"
	"anton/internal/faults"
	"anton/internal/ledger"
	"anton/internal/machine"
	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/service"
	"anton/internal/system"
	"anton/internal/trace"
)

func main() {
	var (
		name    = flag.String("system", "gpW", "named system (see -list) or 'small'")
		nodes   = flag.Int("nodes", 8, "Anton node count to simulate (power of two)")
		shards  = flag.Int("shards", 0, "run the sharded virtual-node pipeline with this many shards (power of two, overrides -nodes; 0 = monolithic engine)")
		steps   = flag.Int("steps", 20, "time steps to run")
		temp    = flag.Float64("temp", 300, "thermostat target temperature, K (0 = NVE)")
		list    = flag.Bool("list", false, "list available systems and exit")
		every   = flag.Int("report", 10, "report energies every N steps")
		pdb     = flag.String("pdb", "", "write the final snapshot as a PDB file")
		comm    = flag.Bool("comm", false, "print the per-step communication report")
		metrics = flag.String("metrics", "", "write the observability snapshot as JSON to this file (and print the text report)")
		pprofAt = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file (load in Perfetto)")
		traceNodes = flag.Bool("trace-nodes", false, "include simulated per-node lanes in the trace (runs the comm model at migrations)")
		traceCap   = flag.Int("trace-ring", 65536, "step tracer ring capacity, spans")
		watch      = flag.Bool("watch", false, "run the health watchdogs (energy, momentum, overflow headroom, migration slack)")
		watchEvery = flag.Int("watch-every", 10, "watchdog sampling cadence, steps")
		listenAt   = flag.String("listen", "", "serve live telemetry (/metrics, /healthz, /trace) on this address")
		logFormat  = flag.String("log", "text", "log format: text or json")
		verbose    = flag.Bool("v", false, "debug-level logging")

		chaosSpec      = flag.String("chaos", "", "fault-injection spec, e.g. 'seed=7,drop=0.02,crashes=1' (requires -shards; see internal/faults)")
		chaosHeartbeat = flag.Duration("chaos-heartbeat", 0, "crash-detection heartbeat timeout (0 = library default)")
		chaosRestarts  = flag.Int("chaos-restarts", 0, "max restarts per crashed shard before its boxes fold into a survivor (0 = library default, negative = adopt on first crash)")
		ckptPath       = flag.String("checkpoint", "", "write crash-consistent checkpoints to this file (periodic under -chaos, always flushed on exit)")
		ckptEvery      = flag.Int("checkpoint-every", 0, "supervised checkpoint cadence in steps under -chaos (0 = library default)")
		resumePath     = flag.String("resume", "", "resume from this checkpoint file (-steps becomes the total step target)")

		ledgerPath  = flag.String("ledger", "", "append a hash-chained run ledger (digests, checkpoints, faults, alerts) to this file; audit it with antonaudit")
		ledgerEvery = flag.Int("ledger-every", 0, "ledger digest cadence in steps (0 = library default, rounded to the MTS interval)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logFormat, *verbose)

	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAt)
	}

	if *list {
		fmt.Println("available systems:")
		for _, n := range system.Names() {
			spec, _ := system.SpecFor(n)
			fmt.Printf("  %-8s %8d atoms, %6.1f Å box, cutoff %5.1f Å, mesh %d³\n",
				n, spec.TotalAtoms, spec.Side, spec.Cutoff, spec.Mesh)
		}
		fmt.Println("  small       645 atoms (fast demo)")
		return
	}

	var s *system.System
	var err error
	if *name == "small" {
		s, err = system.Small(true, 1)
	} else {
		s, err = system.ByName(*name)
	}
	if err != nil {
		logger.Error("load system", "err", err)
		os.Exit(1)
	}
	fmt.Printf("system %s: %d particles, %d waters, %d protein atoms, box %.1f Å\n",
		s.Name, s.NAtoms(), s.Waters, s.ProteinAtoms, s.Box.L.X)

	if *shards > 0 {
		*nodes = *shards
	}
	cfg := core.DefaultConfig(*nodes)
	if *temp <= 0 {
		cfg.TauT = 0
	} else {
		cfg.TargetT = *temp
	}
	// The sharded pipeline wraps the engine: same state, same trajectory,
	// but each virtual node runs as its own goroutine exchanging messages,
	// and Comm() gains a measured-transport section.
	var eng *core.Engine
	var sh *core.Sharded
	if *shards > 0 {
		sh, err = core.NewSharded(s, cfg)
		if err != nil {
			logger.Error("build sharded engine", "err", err)
			os.Exit(1)
		}
		defer sh.Close()
		eng = sh.Engine()
	} else {
		eng, err = core.NewEngine(s, cfg)
		if err != nil {
			logger.Error("build engine", "err", err)
			os.Exit(1)
		}
	}
	rng := rand.New(rand.NewSource(2))
	eng.SetVelocities(system.InitVelocities(s.Top, 300, rng))

	// Resume: restore the checkpoint before anything (fault plane,
	// observability) attaches. The restore is validate-before-mutate — a
	// checkpoint written under a different configuration (system, dt,
	// cutoff, mesh, edited topology) or a damaged file refuses cleanly
	// with the engine state untouched, and we exit rather than silently
	// start a different trajectory. The restored velocities overwrite the
	// seeded initialization above, exactly as an uninterrupted run would
	// have evolved them.
	if *resumePath != "" {
		restore := eng.RestoreCheckpointFile
		if sh != nil {
			restore = sh.RestoreCheckpointFile
		}
		if err := restore(*resumePath); err != nil {
			switch {
			case errors.Is(err, core.ErrCheckpointConfig):
				logger.Error("resume refused: checkpoint was written under a different configuration",
					"file", *resumePath, "err", err)
			case errors.Is(err, core.ErrCheckpointCorrupt), errors.Is(err, core.ErrCheckpointTruncated):
				logger.Error("resume refused: checkpoint file is damaged",
					"file", *resumePath, "err", err)
			default:
				logger.Error("resume checkpoint", "file", *resumePath, "err", err)
			}
			os.Exit(1)
		}
		logger.Info("resumed from checkpoint", "file", *resumePath, "step", eng.StepCount())
		if eng.StepCount() >= *steps {
			logger.Info("checkpoint already at or past the step target; nothing to run",
				"step", eng.StepCount(), "target", *steps)
		}
	}

	// Run ledger: an append-only, hash-chained provenance record of the
	// run — config fingerprint, cadenced state digests, checkpoint writes,
	// fault campaigns, recoveries, health alerts. A resumed run re-opens
	// the existing chain, which audits it end to end first (a tampered
	// ledger refuses cleanly); a fresh run opens with a genesis record.
	// Attaching the ledger never perturbs the trajectory.
	var lw *ledger.Writer
	var tap *core.LedgerTap
	if *ledgerPath != "" {
		resuming := *resumePath != ""
		if _, statErr := os.Stat(*ledgerPath); resuming && statErr == nil {
			lw, err = ledger.Open(*ledgerPath, ledger.Options{})
			if err != nil {
				logger.Error("ledger audit on resume failed", "file", *ledgerPath, "err", err)
				os.Exit(1)
			}
			if err := lw.AppendResume(eng.StepCount(), 1); err != nil {
				logger.Error("ledger resume record", "err", err)
				os.Exit(1)
			}
			logger.Info("ledger audited on resume", "file", *ledgerPath, "step", eng.StepCount())
		} else {
			lw, err = ledger.Create(*ledgerPath, ledger.Options{})
			if err != nil {
				logger.Error("create ledger", "file", *ledgerPath, "err", err)
				os.Exit(1)
			}
			// The genesis spec is a service.JobSpec so antonaudit -replay
			// can rebuild this run through the same constructor the daemon
			// uses. antonsim seeds velocities with the fixed seed 2.
			ens := "nvt"
			if *temp <= 0 {
				ens = "nve"
			}
			spec, _ := json.Marshal(service.JobSpec{
				System: *name, Steps: *steps, Shards: *shards, Nodes: *nodes,
				Ensemble: ens, Temperature: *temp, Seed: 2, Chaos: *chaosSpec,
			})
			if err := lw.AppendGenesis(ledger.Genesis{
				Spec:        spec,
				Fingerprint: eng.FingerprintHex(),
				System:      s.Name,
				Atoms:       s.NAtoms(),
			}); err != nil {
				logger.Error("ledger genesis", "err", err)
				os.Exit(1)
			}
		}
		defer func() {
			if err := lw.Close(); err != nil {
				logger.Error("close ledger", "err", err)
			}
		}()
		tap = core.AttachLedger(eng, lw, *ledgerEvery)
		logger.Info("run ledger attached", "file", *ledgerPath, "cadence", tap.Cadence())
	}

	// Fault injection: the chaos plane and the supervised recovery loop
	// wrap the sharded pipeline (the monolithic engine has no transport to
	// fault). The trajectory contract holds regardless of the campaign.
	chaos := *chaosSpec != ""
	if chaos {
		if sh == nil {
			logger.Error("-chaos requires -shards")
			os.Exit(1)
		}
		sp, err := faults.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Error("parse chaos spec", "err", err)
			os.Exit(1)
		}
		plane := faults.New(sp, sh.Shards())
		fcfg := core.FaultConfig{
			Plane:           plane,
			CheckpointEvery: *ckptEvery,
			MaxRestarts:     *chaosRestarts,
			Heartbeat:       *chaosHeartbeat,
			CheckpointPath:  *ckptPath,
			OnRecovery: func(ev core.RecoveryEvent) {
				if lw != nil {
					if err := lw.AppendRecovery(ledger.Recovery{
						DetectedStep: ev.DetectedStep, RestoredStep: ev.RestoredStep,
						Crashed: ev.Crashed, Adopted: ev.Adopted, Spurious: ev.Spurious,
					}); err != nil {
						logger.Error("ledger recovery record", "err", err)
					}
				}
				if ev.Spurious {
					logger.Warn("spurious recovery (stall outlasted the heartbeat)",
						"step", ev.DetectedStep, "restored", ev.RestoredStep)
					return
				}
				logger.Warn("shard crash recovered",
					"step", ev.DetectedStep, "restored", ev.RestoredStep,
					"crashed", ev.Crashed, "adopted", ev.Adopted)
			},
		}
		if err := sh.EnableFaults(fcfg); err != nil {
			logger.Error("enable faults", "err", err)
			os.Exit(1)
		}
		logger.Info("fault injection armed", "spec", plane.Spec().String(),
			"crashes", len(plane.Schedule()))
		if lw != nil {
			if err := lw.AppendFaults(int64(eng.StepCount()), sp.String(), sp.Seed); err != nil {
				logger.Error("ledger faults record", "err", err)
				os.Exit(1)
			}
		}
	}

	// Observability attachments. Everything below is read-only with
	// respect to the dynamics: the trajectory is bitwise identical with
	// or without it.
	var rec *obs.Recorder
	if *metrics != "" || *listenAt != "" {
		rec = obs.NewRecorder()
		rec.EnableMemStats()
		eng.Observe(rec)
	}
	var tracer *obs.Tracer
	if *traceOut != "" || *listenAt != "" {
		tracer = obs.NewTracer(*traceCap)
		if *traceNodes {
			tracer.EnableNodeLanes(cfg.MigrationInterval)
		}
		eng.Trace(tracer)
	}
	var watchdog *core.Watch
	if *watch || *listenAt != "" {
		watchdog = core.NewWatch(eng, health.DefaultConfig(), *watchEvery)
		if sh != nil && chaos {
			// Feed the transport counters to the retry-storm monitor: a
			// lossy campaign that pushes the retransmit ratio past the
			// thresholds surfaces as a watchdog alert.
			watchdog.WatchTransport(sh.TransportCounts)
		}
	}

	var tel *obs.Telemetry
	if *listenAt != "" {
		tel = obs.NewTelemetry()
		go func() {
			if err := tel.ListenAndServe(*listenAt); err != nil {
				logger.Error("telemetry server", "err", err)
			}
		}()
		logger.Info("telemetry listening", "addr", *listenAt,
			"endpoints", "/metrics /healthz /trace")
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the run at the
	// next report boundary (a second signal kills the process the usual
	// way, since the context stops masking it).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// publish pushes fresh copies of the observability state to the
	// telemetry surface (the HTTP handlers only ever read those copies).
	publish := func() {
		if tel == nil {
			return
		}
		if rec != nil {
			tel.PublishSnapshot(rec.Snapshot())
		}
		tel.PublishSample(eng.TelemetrySample())
		if watchdog != nil {
			tel.PublishHealth(watchdog.Registry().Status(obs.SchemaVersion))
		}
		if tracer != nil {
			if err := tel.PublishTrace(tracer); err != nil {
				logger.Error("publish trace", "err", err)
			}
		}
	}

	step := eng.Step
	remaining := *steps - eng.StepCount()
	if remaining < 0 {
		remaining = 0
	}
	if sh != nil {
		step = sh.Step
		fmt.Printf("running %d steps across %d virtual node shards (torus %v)\n",
			remaining, *shards, eng.Mach.Dims)
	} else {
		fmt.Printf("running %d steps on a %d-node machine (torus %v)\n", remaining, *nodes, eng.Mach.Dims)
	}
	interrupted := false
	for done := eng.StepCount(); done < *steps; {
		if ctx.Err() != nil {
			interrupted = true
			logger.Info("signal received, stopping", "completed", done, "requested", *steps)
			break
		}
		n := *every
		if done+n > *steps {
			n = *steps - done
		}
		step(n)
		done += n
		if sh != nil {
			if err := sh.Err(); err != nil {
				logger.Error("sharded engine parked", "err", err)
				break
			}
		}
		fmt.Printf("step %5d: T = %6.1f K   PE = %12.2f   E = %12.2f kcal/mol\n",
			eng.StepCount(), eng.Temperature(), eng.PotentialEnergy, eng.TotalEnergy())
		if watchdog != nil {
			for _, a := range watchdog.Drain() {
				lvl := slog.LevelWarn
				if a.Severity >= health.SevCrit {
					lvl = slog.LevelError
				}
				logger.Log(context.Background(), lvl, "watchdog alert",
					"monitor", a.Monitor, "severity", a.Severity.String(),
					"step", a.Step, "value", a.Value, "threshold", a.Threshold)
				if lw != nil {
					if err := lw.AppendAlert(a.Step, ledger.Alert{
						Monitor: a.Monitor, Severity: a.Severity.String(),
						Value: a.Value, Threshold: a.Threshold, Message: a.Message,
					}); err != nil {
						logger.Error("ledger alert record", "err", err)
					}
				}
			}
		}
		publish()
	}

	// Exit path (normal, interrupted, or parked): flush a final
	// crash-consistent checkpoint, then drain the telemetry server so
	// in-flight scrapes finish before the listener dies.
	if *ckptPath != "" {
		writeCkpt := eng.WriteCheckpointFile
		if sh != nil {
			writeCkpt = sh.WriteCheckpointFile
		}
		if err := writeCkpt(*ckptPath); err != nil {
			logger.Error("final checkpoint", "err", err)
		} else {
			logger.Info("final checkpoint flushed", "file", *ckptPath, "step", eng.StepCount())
			if tap != nil {
				if err := tap.RecordCheckpoint(*ckptPath); err != nil {
					logger.Error("ledger checkpoint record", "err", err)
				}
			}
		}
	}
	if tap != nil {
		if err := tap.Err(); err != nil {
			logger.Error("ledger append failed during the run", "err", err)
		}
		st := lw.Stats()
		fmt.Printf("\nrun ledger %s: %d records, %d commits, %d bytes (audit with antonaudit)\n",
			*ledgerPath, st.Records, st.Commits, st.Bytes)
	}
	if tel != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := tel.Shutdown(sctx); err != nil {
			logger.Error("telemetry shutdown", "err", err)
		}
		cancel()
	}
	if interrupted {
		logger.Info("stopped early on signal", "steps", eng.StepCount())
	}

	// The state digest identifies the trajectory: an interrupted-and-
	// resumed run must print the same digest at the same step as an
	// uninterrupted one.
	fmt.Printf("\nstate digest at step %d: %016x\n", eng.StepCount(), eng.StateDigest())

	st := eng.Stats
	fmt.Printf("\nhardware statistics over %d steps:\n", st.Steps)
	fmt.Printf("  pairs considered by match units: %d\n", st.PairsConsidered)
	fmt.Printf("  pairs passing low-precision check: %d\n", st.PairsMatched)
	fmt.Printf("  pairs computed by PPIPs: %d\n", st.PairsComputed)
	fmt.Printf("  match efficiency: %.1f%%\n", st.MatchEfficiency()*100)
	fmt.Printf("  atom-mesh interactions: %d\n", st.MeshInteractions)
	fmt.Printf("  migrations: %d\n", st.Migrations)
	if watchdog != nil {
		reg := watchdog.Registry()
		fmt.Printf("  watchdog: worst severity %s (%d warn, %d critical alerts)\n",
			reg.Worst(), reg.Fired(health.SevWarn), reg.Fired(health.SevCrit))
	}
	if chaos {
		rep := sh.FaultReport()
		fmt.Printf("\nfault campaign over %d steps:\n", st.Steps)
		fmt.Printf("  injected: %d drops, %d dups, %d delays, %d corruptions, %d stalls, %d crashes\n",
			rep.Injected.Drops, rep.Injected.Dups, rep.Injected.Delays,
			rep.Injected.Corrupts, rep.Injected.Stalls, rep.Injected.CrashesFired)
		fmt.Printf("  recoveries: %d (%d replayed steps", rep.Recoveries, rep.ReplaySteps)
		if rep.Recoveries > 0 {
			fmt.Printf(", mean %.1f ms", float64(rep.RecoveryNs)/float64(rep.Recoveries)/1e6)
		}
		fmt.Printf("); adoptions: %d; dead shards: %v\n", rep.Adoptions, rep.DeadShards)
		fmt.Printf("  transport: %d sends, %d retransmits, %d dup discards, %d crc discards\n",
			rep.Transport.Sends, rep.Transport.Retransmits,
			rep.Transport.DupDiscards, rep.Transport.CrcDiscards)
	}

	if rec != nil && *metrics != "" {
		snap := rec.Snapshot()
		fmt.Printf("\n%s", snap)
		f, err := os.Create(*metrics)
		if err != nil {
			logger.Error("write metrics", "err", err)
			os.Exit(1)
		}
		if err := snap.WriteJSON(f); err != nil {
			logger.Error("write metrics", "err", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("write metrics", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics to %s\n", *metrics)
	}

	if tracer != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			logger.Error("write trace", "err", err)
			os.Exit(1)
		}
		if err := tracer.Export(f); err != nil {
			logger.Error("write trace", "err", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("write trace", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s (%d spans, %d dropped; open in Perfetto)\n",
			*traceOut, len(tracer.Spans()), tracer.Dropped())
	}

	if *comm {
		commFn := eng.Comm
		if sh != nil {
			commFn = sh.Comm // includes the measured transport section
		}
		rep, err := commFn()
		if err != nil {
			logger.Error("comm report", "err", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s", rep)
	}

	if *pdb != "" {
		f, err := os.Create(*pdb)
		if err != nil {
			logger.Error("write pdb", "err", err)
			os.Exit(1)
		}
		labels := make([]trace.AtomLabel, s.NAtoms())
		for i, a := range s.Top.Atoms {
			labels[i] = trace.AtomLabel{Name: a.Name, Residue: a.Residue}
		}
		if err := trace.WritePDB(f, labels, eng.Positions(), s.Box, 1); err != nil {
			logger.Error("write pdb", "err", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("write pdb", "err", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote snapshot to %s\n", *pdb)
	}

	w := machine.WorkloadFromSystem(s)
	p := machine.DefaultModel.Estimate(eng.Mach, w)
	fmt.Printf("\nperformance model for this configuration:\n")
	fmt.Printf("  per-step (long-range): %.1f us; (short): %.1f us; average %.1f us\n",
		p.TotalLongRange*1e6, p.TotalShort*1e6, p.Average*1e6)
	fmt.Printf("  projected simulation rate: %.2f us/day\n", p.RatePerDay)
}
