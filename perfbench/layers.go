package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"anton/internal/core"
	"anton/internal/fft"
	"anton/internal/ledger"
	"anton/internal/obs"
)

// attachRecorder starts the engine's phase accounting. Attaching it
// changes no trajectory bit; its cost shows in the tracing overhead.
func attachRecorder(e *core.Engine) *obs.Recorder {
	rec := obs.NewRecorder()
	e.Observe(rec)
	return rec
}

// phaseMetrics reports the per-step wall time of the obs phases the
// per-layer list names. Only monolithic engines are measured this way.
func (b *bench) phaseMetrics(rec *obs.Recorder, steps int, note string) {
	ns := make(map[string]int64)
	for _, p := range rec.Snapshot().Phases {
		ns[p.Name] = p.Ns
	}
	for _, name := range []string{"pair-match", "mesh-spread", "mesh-interp", "fft", "constraints"} {
		b.layer("phase."+name+"_ms", float64(ns[name])/1e6/float64(steps), "ms", steps, note)
	}
}

// exchange is the cumulative shard-exchange traffic of a sharded run.
type exchange struct {
	raw, wire, messages int64
	blockedNs, overlap  int64
}

func exchangeTotals(sh *core.Sharded) (exchange, error) {
	t := sh.TransportStats()
	rep, err := sh.Comm()
	if err != nil {
		return exchange{}, fmt.Errorf("shard traffic report: %w", err)
	}
	m := rep.Measured
	return exchange{
		raw:       t.PosRawBytes + t.ForceRawBytes,
		wire:      t.PosWireBytes + t.ForceWireBytes,
		messages:  m.ImportMsgs + m.ExportMsgs + m.MeshMsgs + m.MigrationMsgs,
		blockedNs: t.BlockedNs,
		overlap:   t.OverlapNs,
	}, nil
}

// exchangeMetrics reports the shard exchange of a traced pass from the
// transport statistics between its two ends.
func (b *bench) exchangeMetrics(a, z exchange, p pass, mts, shards int, note string) {
	steps := float64(p.steps(mts))
	b.layer("shard.step_ms_p50", median(durationsMs(p.cycles))/float64(mts), "ms", len(p.cycles), "median MTS cycle / steps per cycle "+note)
	b.layer("shard.blocked_ms_per_shard_step", float64(z.blockedNs-a.blockedNs)/1e6/float64(shards)/steps, "ms", int(steps), note)
	b.layer("shard.overlap_ms_per_step", float64(z.overlap-a.overlap)/1e6/steps, "ms", int(steps), note)
	b.layer("shard.raw_bytes_per_step", float64(z.raw-a.raw)/steps, "B", int(steps), note)
	b.layer("shard.wire_bytes_per_step", float64(z.wire-a.wire)/steps, "B", int(steps), note)
	b.layer("shard.messages_per_step", float64(z.messages-a.messages)/steps, "count", int(steps), note)
}

// layerProbes times the layers a step does not reach on its own: a
// forward plus inverse 3D FFT at the workload's mesh size, a checkpoint
// serialization of the running simulation, and a ledger append+commit.
func (b *bench) layerProbes(sim core.Sim, mesh int) error {
	const reps = 21
	g := fft.NewGrid3(mesh, mesh, mesh)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%7), float64(i%3))
	}
	var ffts, ckpts, appends []time.Duration
	for i := 0; i < reps; i++ {
		id := b.tr.begin("fft.roundtrip", 0, 0)
		ffts = append(ffts, timeIt(func() { g.Forward3(); g.Inverse3() }))
		b.tr.end(id)
	}
	b.layer("fft.roundtrip_ms", median(durationsMs(ffts)), "ms", reps, fmt.Sprintf("%d³ forward + inverse", mesh))

	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		buf.Reset()
		var err error
		id := b.tr.begin("core.checkpoint_write", 0, 0)
		ckpts = append(ckpts, timeIt(func() { err = sim.WriteCheckpoint(&buf) }))
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
	}
	b.count("core.checkpoint_bytes", int64(buf.Len()))
	b.layer("core.checkpoint_bytes", float64(buf.Len()), "B", 1, "exact")
	b.layer("core.checkpoint_write_ms", median(durationsMs(ckpts)), "ms", reps, "Sim.WriteCheckpoint to memory")

	w, err := ledger.Create(filepath.Join(b.scratch, "probe.ledger"), ledger.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	digest := sim.StateDigest()
	for i := 0; i < reps; i++ {
		var err error
		id := b.tr.begin("ledger.append_commit", 0, 0)
		appends = append(appends, timeIt(func() {
			if err = w.AppendDigest(int64(i), digest); err == nil {
				err = w.Commit()
			}
		}))
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("ledger probe: %w", err)
		}
	}
	b.layer("ledger.append_commit_us", median(durationsMs(appends))*1000, "us", reps, "AppendDigest + Commit (fsync)")
	return w.Close()
}
