package core

import (
	"math/rand"
	"testing"

	"anton/internal/system"
)

// Golden trajectory digests. Every kernel rewrite (fixed-point rounding,
// PPIP table lookup, pair and mesh loops) must leave these bits alone:
// the engine is deterministic, so a changed digest means a changed
// trajectory. The runs use DefaultConfig(8), Workers=2 and velocity seed
// 1, the configuration of the perfbench workloads. Update a value only
// for a deliberate physics change, and say so in the change log.
const (
	goldenSmall40  = 0xca5381bc3991433d // system.Small(true, 1), 40 steps
	goldenDHFRStep = 0x4cd2fc0e7d2f99e9 // DHFR, 4 steps (2 warm-up + 1 MTS cycle)
)

// goldenSim builds sys with DefaultConfig(8), Workers=2 and Maxwell-
// Boltzmann velocities from seed 1, monolithic or on 8 shards.
func goldenSim(t *testing.T, sys *system.System, sharded bool) Sim {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	vel := system.InitVelocities(sys.Top, 300, rand.New(rand.NewSource(1)))
	if sharded {
		sh, err := NewSharded(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		sh.SetVelocities(vel)
		return sh
	}
	e, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetVelocities(vel)
	return e
}

func checkGolden(t *testing.T, name string, sim Sim, want uint64) {
	t.Helper()
	if got := sim.StateDigest(); got != want {
		t.Errorf("%s: digest %016x at step %d, want %016x", name, got, sim.StepCount(), want)
	}
}

func TestGoldenDigests(t *testing.T) {
	small := func() *system.System {
		s, err := system.Small(true, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("small/monolithic", func(t *testing.T) {
		sim := goldenSim(t, small(), false)
		sim.Step(40)
		checkGolden(t, "small monolithic", sim, goldenSmall40)
	})
	t.Run("small/shards8", func(t *testing.T) {
		sim := goldenSim(t, small(), true)
		sim.Step(40)
		checkGolden(t, "small 8 shards", sim, goldenSmall40)
	})
	t.Run("DHFR/mts-cycle", func(t *testing.T) {
		if testing.Short() {
			t.Skip("DHFR steps take seconds each")
		}
		s, err := system.ByName("DHFR")
		if err != nil {
			t.Fatal(err)
		}
		sim := goldenSim(t, s, false)
		sim.Step(4)
		checkGolden(t, "DHFR", sim, goldenDHFRStep)
	})
}
