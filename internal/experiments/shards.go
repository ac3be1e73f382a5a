package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"anton/internal/core"
	"anton/internal/fixp"
	"anton/internal/obs"
	"anton/internal/system"
)

// ShardPhaseTraffic is the measured traffic of one communication phase at
// one shard count: messages the transport actually carried, routed over
// the torus model for byte and hop accounting.
type ShardPhaseTraffic struct {
	Messages     int64 `json:"messages"`
	PayloadBytes int64 `json:"payload_bytes"`
	MaxHops      int   `json:"max_hops"`
	BusiestLinkB int64 `json:"busiest_link_bytes"`
}

// ShardScalingRow is one shard count's measurements in the
// shard-scaling experiment (the BENCH_shards.json record).
type ShardScalingRow struct {
	Shards       int     `json:"shards"`
	WallMs       float64 `json:"wall_ms"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	BitwiseMatch bool    `json:"bitwise_match"` // trajectory identical to monolithic reference

	// Exchange accounting: total and per-shard-mean blocked-on-recv ns,
	// and the payload bytes of remote sends per traffic class.
	BlockedNs      int64 `json:"blocked_ns"`
	BlockedNsShard int64 `json:"blocked_ns_per_shard"`
	PosRawBytes    int64 `json:"pos_raw_bytes"`
	ForceRawBytes  int64 `json:"force_raw_bytes"`

	Evals     int64             `json:"force_evals"`
	Import    ShardPhaseTraffic `json:"import"`
	Export    ShardPhaseTraffic `json:"export"`
	Mesh      ShardPhaseTraffic `json:"mesh"`
	Migration ShardPhaseTraffic `json:"migration"`
}

// ShardScalingData is the structured result of the shard-scaling
// experiment: throughput and measured message traffic of the sharded
// virtual-node pipeline as the shard count grows, all on one host — the
// communication totals are what a real machine of that node count would
// have to carry for this system.
type ShardScalingData struct {
	Schema string `json:"schema"`
	System string `json:"system"`
	Atoms  int    `json:"atoms"`
	Steps  int    `json:"steps"`
	// StateDigest is the reference trajectory's final state digest
	// (%016x of core.Sim.StateDigest) — the identity every row's
	// bitwise_match column is judged against, and the hook for auditing
	// a regenerated record against a run ledger.
	StateDigest string            `json:"state_digest"`
	Rows        []ShardScalingRow `json:"rows"`
}

// ShardScaling runs the shard-scaling experiment and renders the
// plain-text report.
func ShardScaling(steps int) (string, error) {
	d, err := shardScalingData(steps)
	if err != nil {
		return "", err
	}
	return renderShardScaling(d), nil
}

// ShardScalingJSON runs the shard-scaling experiment and returns the
// structured record as indented JSON — the generator of the committed
// BENCH_shards.json artifact (make shards).
func ShardScalingJSON(steps int) ([]byte, error) {
	d, err := shardScalingData(steps)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func shardScalingData(steps int) (*ShardScalingData, error) {
	s, err := system.Small(true, 21)
	if err != nil {
		return nil, err
	}
	d := &ShardScalingData{
		Schema: obs.SchemaVersion,
		System: s.Name,
		Atoms:  s.NAtoms(),
		Steps:  steps,
	}

	// Monolithic reference trajectory for the bitwise-invariance column.
	refP, refV, refDigest, err := shardReference(steps)
	if err != nil {
		return nil, err
	}
	d.StateDigest = refDigest

	for _, shards := range []int{1, 8, 64, 512} {
		sys, err := system.Small(true, 21)
		if err != nil {
			return nil, err
		}
		sh, err := core.NewSharded(sys, core.DefaultConfig(shards))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(33))
		sh.SetVelocities(system.InitVelocities(sys.Top, 300, rng))

		start := time.Now()
		sh.Step(steps)
		wall := time.Since(start)

		rep, err := sh.Comm()
		if err != nil {
			sh.Close()
			return nil, err
		}
		m := rep.Measured
		ts := sh.TransportStats()

		p, v := sh.Snapshot()
		match := true
		for i := range refP {
			if p[i] != refP[i] || v[i] != refV[i] {
				match = false
				break
			}
		}
		sh.Close()

		d.Rows = append(d.Rows, ShardScalingRow{
			Shards:         shards,
			WallMs:         float64(wall.Nanoseconds()) / 1e6,
			StepsPerSec:    float64(steps) / wall.Seconds(),
			BitwiseMatch:   match,
			BlockedNs:      ts.BlockedNs,
			BlockedNsShard: ts.BlockedNs / int64(shards),
			PosRawBytes:    ts.PosRawBytes,
			ForceRawBytes:  ts.ForceRawBytes,
			Evals:          m.Evals,
			Import: ShardPhaseTraffic{m.ImportMsgs, m.Import.PayloadBytes,
				m.Import.MaxHops, m.Import.BusiestChannelBytes},
			Export: ShardPhaseTraffic{m.ExportMsgs, m.Export.PayloadBytes,
				m.Export.MaxHops, m.Export.BusiestChannelBytes},
			Mesh: ShardPhaseTraffic{m.MeshMsgs, m.Mesh.PayloadBytes,
				m.Mesh.MaxHops, m.Mesh.BusiestChannelBytes},
			Migration: ShardPhaseTraffic{m.MigrationMsgs, m.Migration.PayloadBytes,
				m.Migration.MaxHops, m.Migration.BusiestChannelBytes},
		})
	}
	return d, nil
}

// shardReference runs the monolithic engine with the experiment's initial
// conditions and returns its final state and state digest.
func shardReference(steps int) ([]fixp.Vec3, []core.Vel3, string, error) {
	s, err := system.Small(true, 21)
	if err != nil {
		return nil, nil, "", err
	}
	e, err := core.NewEngine(s, core.DefaultConfig(1))
	if err != nil {
		return nil, nil, "", err
	}
	rng := rand.New(rand.NewSource(33))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	e.Step(steps)
	rp, rv := e.Snapshot()
	return rp, rv, fmt.Sprintf("%016x", e.StateDigest()), nil
}

// renderShardScaling formats the structured record as the experiment's
// plain-text report.
func renderShardScaling(d *ShardScalingData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded virtual-node scaling (%s, %d atoms, %d steps per run):\n",
		d.System, d.Atoms, d.Steps)
	fmt.Fprintf(&b, "%7s %10s %9s %11s %10s %10s %10s %10s %10s  %s\n",
		"shards", "steps/s", "wall ms", "blocked ms", "payload KB",
		"import", "export", "mesh", "migration", "bitwise")
	for _, r := range d.Rows {
		match := "match"
		if !r.BitwiseMatch {
			match = "DIVERGED"
		}
		fmt.Fprintf(&b, "%7d %10.2f %9.0f %11.1f %10.1f %10d %10d %10d %10d  %s\n",
			r.Shards, r.StepsPerSec, r.WallMs, float64(r.BlockedNs)/1e6,
			float64(r.PosRawBytes+r.ForceRawBytes)/1e3,
			r.Import.Messages, r.Export.Messages, r.Mesh.Messages, r.Migration.Messages, match)
	}
	fmt.Fprintf(&b, "(message counts are measured over the whole run, %d force evaluations;\n", d.Rows[0].Evals)
	fmt.Fprintf(&b, " a single host runs every shard, so steps/s falls as goroutine and\n")
	fmt.Fprintf(&b, " message overhead grows — the traffic columns are the scaling payload.\n")
	fmt.Fprintf(&b, " blocked ms is total recv-wait across shards, payload KB the position\n")
	fmt.Fprintf(&b, " and force bytes of remote sends)\n")
	return b.String()
}
