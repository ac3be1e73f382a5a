GO ?= go

.PHONY: build test test-short verify serve bench-pair bench-mesh profile trace bench-obs shards chaos servicechaos scaling ledger bench-ledger

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Static analysis + race detector over the packages with parallel
# mutable state (see scripts/verify.sh).
verify:
	sh scripts/verify.sh

# Run the simulation daemon with durable job state under ./antond-state.
# Submit jobs with curl (see README "Service quickstart"); kill and rerun
# this target to watch interrupted jobs resume from their checkpoints.
serve:
	$(GO) run ./cmd/antond -listen localhost:8780 -state antond-state

# Instrumented demo run: per-phase metrics to metrics.json plus a live
# pprof endpoint, then the measured-vs-predicted profile experiment.
profile:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-metrics metrics.json -pprof localhost:6060
	$(GO) run ./cmd/antonbench -experiment profile

# Step-level timeline: run an instrumented simulation with simulated
# node lanes and health watchdogs, validate the export, and leave
# trace.json ready to load at https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-trace trace.json -trace-nodes -watch
	$(GO) run scripts/validate_trace.go trace.json

# Regenerate the committed structured profile record (BENCH_obs.json).
bench-obs:
	$(GO) run ./cmd/antonbench -profile-json BENCH_obs.json

# Shard-scaling run: throughput, receive wait, payload bytes and measured
# message traffic of the sharded virtual-node pipeline, one row per shard
# count (1/8/64/512), regenerating the committed BENCH_shards.json record.
# Every row must report a bitwise match against the monolithic run.
shards:
	$(GO) run ./cmd/antonbench -experiment shards -full
	$(GO) run ./cmd/antonbench -shards-json BENCH_shards.json -full

# Chaos soak: the full fault-injection campaign (message faults, stalls,
# a shard crash with checkpoint rollback) at 1/8/64 shards, regenerating
# the committed BENCH_chaos.json record. Every row must report a bitwise
# match against the fault-free monolithic run.
chaos:
	$(GO) run ./cmd/antonbench -experiment chaos
	$(GO) run ./cmd/antonbench -chaos-json BENCH_chaos.json

# Service chaos: antond jobs on a hostile disk — seeded ENOSPC/EIO/torn
# writes/stalls plus scheduled crashes at rotating persist points, with
# the daemon killed and rebooted after every crash. Regenerates the
# committed BENCH_servicechaos.json record; every surviving job must
# report a bitwise match against the undisturbed run and a verifying
# ledger.
servicechaos:
	$(GO) run ./cmd/antonbench -experiment servicechaos
	$(GO) run ./cmd/antonbench -servicechaos-json BENCH_servicechaos.json

# The pair-kernel benchmarks backing BENCH_pairkernel.json.
bench-pair:
	$(GO) test -run '^$$' -bench 'BenchmarkRangeLimitedForces|BenchmarkStepDHFRScale' \
		-benchtime 3x ./internal/core

# The mesh/FFT hot-path benchmarks: every one must report 0 allocs/op on
# the steady-state path (plans, tiles, worker buffers preallocated).
bench-mesh:
	$(GO) test -run '^$$' -bench 'BenchmarkFFT3D|BenchmarkDistFFT' \
		-benchtime 100x ./internal/fft
	$(GO) test -run '^$$' -bench 'BenchmarkMeshForces' \
		-benchtime 3x ./internal/core

# Provenance demo: run with a hash-chained ledger attached, then audit
# it offline — verify the chain, locate the checkpoint, and replay the
# run bitwise against its own recorded digests.
ledger:
	$(GO) run ./cmd/antonsim -system small -steps 200 \
		-checkpoint run.ckpt -ledger run.ledger
	$(GO) run ./cmd/antonaudit -ledger run.ledger -replay -1

# Ledger-overhead run: baseline vs per-record-committed vs
# Merkle-batched provenance on the DHFR hot path, regenerating the
# committed BENCH_ledger.json record. The batched row's overhead is the
# acceptance number.
bench-ledger:
	$(GO) run ./cmd/antonbench -ledger-json BENCH_ledger.json

# Mesh strong-scaling run: steps/sec of the long-range mesh path across
# GOMAXPROCS and shard counts at DHFR scale, regenerating the committed
# BENCH_meshscaling.json record.
scaling:
	$(GO) run ./cmd/antonbench -experiment scaling
	$(GO) run ./cmd/antonbench -meshscaling-json BENCH_meshscaling.json
