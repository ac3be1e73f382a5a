#!/bin/sh
# Verification gate for the parallel force path: static analysis plus the
# race detector over the packages that share mutable per-worker state
# (force buffers, batch queues, reduction staging). Run before merging
# changes to the engine's parallel sections.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Optional gate: run staticcheck when the binary is on PATH, skip quietly
# otherwise (the container image does not ship it and the repo adds no
# tool dependencies).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== race: core + htis + obs + health + trace =="
# -short skips the long soak tests; the invariance and reduction tests
# that exercise every parallel section still run. obs and obs/health also
# cover the Telemetry surface (locked state read by HTTP handlers).
go test -race -short ./internal/core ./internal/htis ./internal/obs \
	./internal/obs/health ./internal/trace

echo "== race: fft plan cache + ewald mesh path =="
# The FFT plan cache is process-global and hit concurrently by every
# parallel transform and every shard engine; the ewald spreaders carry
# pooled per-solver scratch. TestPlanCacheConcurrent hammers the cache
# from many goroutines, and the concurrent shard mesh-solve test below
# (in core) crosses engines.
go test -race -short ./internal/fft ./internal/ewald
go test -race -run 'TestConcurrentShardMeshSolves' ./internal/core

echo "== race: sharded virtual-node pipeline =="
# The sharded execution path is the repo's most concurrency-dense code:
# one goroutine per shard exchanging position/force messages every step.
# Run the tentpole invariance test and the cross-shard-count checkpoint
# restore under the race detector explicitly (they skip under -short, so
# the generic pass above stays fast).
go test -race -run 'TestShardInvariance|TestShardCheckpointCrossShardCount' \
	./internal/core

echo "== race: shard exchange reorder (8 and 64 shards) =="
# The reorder campaigns (8 and 64 shards, delay/stall/dup-heavy planes)
# are the densest delivery interleavings the reliable transport sees;
# the 8-shard migration-on-refresh test runs the same pipeline over the
# plain transport alongside them.
go test -race -run 'TestShardChaosReorder|TestShardMigrationCoincidesWithRefresh' \
	./internal/core

echo "== shard exchange: payload byte determinism =="
# The payload byte counts must be a pure function of the trajectory:
# -count=2 runs the test twice in one process so state leaks cannot hide.
go test -count=2 -run 'TestShardWireBytesDeterminism' ./internal/core

echo "== race: telemetry lifecycle =="
# The Telemetry shutdown/serve lifecycle is hit concurrently by the
# daemon's per-job handlers: double Shutdown, Shutdown-before-Serve and
# Serve-after-Shutdown must all be safe, and the TelemetrySet multiplexer
# must route under concurrent access.
go test -race -run 'TestTelemetryLifecycle|TestTelemetrySet' ./internal/obs

echo "== race: run ledger (writer concurrency + verification) =="
# The ledger writer is appended to from the step loop and the recovery
# supervisor concurrently; run the whole package under the race
# detector, plus the zero-perturbation contract (attaching a ledger
# changes no trajectory bit across monolithic/parallel/sharded runs).
go test -race ./internal/ledger
go test -race -short -run 'TestLedgerZeroPerturbation|TestLedgerTap' \
	./internal/core

echo "== ledger: tamper detection =="
# Flip bytes across a committed chain: every flip must fail
# verification naming the record or the head. This is the gate that
# keeps raw-line hashing honest — no canonicalization hole.
go test -run 'TestLedgerTamper|TestLedgerTruncatedCommittedTail' \
	./internal/ledger

echo "== ledger: Merkle root determinism =="
# The same records must seal the same roots in any process, twice in
# one process (-count=2 exposes ordering/state leaks between runs).
go test -count=2 -run 'TestLedgerRootDeterminism' ./internal/ledger

echo "== race: service daemon (units + API) =="
# The service package's fast surface under the race detector:
# queue/store/auth units, admission control, idempotency, metrics, and
# the supervision-routing unit tests. The long simulation-backed tests
# run in the two dedicated gates below, so nothing is raced twice.
go test -race -short ./internal/service

echo "== race: service durability e2e =="
# The durability contracts, raced: kill-and-restart resumes from the
# last durable checkpoint, graceful drain resumes from the stop
# boundary — both bitwise identical to an uninterrupted reference run —
# and the per-job provenance ledger survives resume and detects tamper.
go test -race -run 'TestServiceHTTP|TestCancel|TestDaemonKillRestartDurability|TestDaemonRecoversLegacyOverlapSpec|TestGracefulStopPersistsBoundary|TestJobLedger|TestDaemonWorkerMetrics' \
	./internal/service

echo "== race: service chaos (hostile-disk campaign) =="
# The storage-fault campaign under the race detector: the persist-point
# crash matrix (every cut of checkpoint -> ledger -> status), the
# transient-fault storm, corrupt-checkpoint quarantine, deadline and
# stall supervision, admission control, and the scheduled kill/reboot
# campaign. Every surviving job must land bitwise identical to the
# undisturbed run with a verifying ledger.
go test -race -run Chaos ./internal/service

echo "== storage fault plane: replay determinism =="
# The fault plane's replayability contract: the same seed must produce
# the same verdict stream, crash schedule and torn bytes, and the
# streak-suppression liveness bound must hold. -count=2 runs each twice
# in one process so hidden global state cannot pass by luck.
go test -race ./internal/faults
go test -count=2 -run 'TestFSReplayDeterminism|TestFSLiveness|TestScheduleDeterministic' \
	./internal/faults

echo "== race: checkpoint file cross-shard resume =="
# A checkpoint *file* written at 8 shards must resume at 1 and 64 shards
# (and monolithically) onto the same trajectory — the persisted artifact
# is decomposition-free, which is what lets antond resume any job on any
# future configuration of the worker pool.
go test -race -run 'TestCheckpointFileCrossShardResume' ./internal/core

echo "== chaos: fault injection + recovery under race =="
# A short seeded campaign through the reliable transport and the crash
# supervisor: the quiet-plane run proves the protocol machinery is
# invisible, the single-shard run exercises crash detection, checkpoint
# rollback and replay. Both assert the trajectory stays bitwise the
# monolithic one.
go test -race -run 'TestChaosReliableNoFaults|TestChaosSingleShard' \
	./internal/core

echo "== chaos: replay determinism =="
# The same seed must replay the same campaign — crash schedule, fault
# classes, and the bitwise trajectory. -count=2 runs it twice in one
# process so cross-run state leaks cannot hide.
go test -count=2 -run 'TestChaosReplayDeterminism' ./internal/core

echo "== determinism: repeated runs =="
# -count=2 executes each determinism-sensitive test twice in one process,
# which is what exposes map-iteration-order bugs (the Comm() importer
# traversal was one): a single run can pass by luck, two rarely agree.
go test -count=2 -run \
	'TestCommDeterministic|TestObsBitwiseInvariance|Deterministic|Bitwise|Invariance' \
	./internal/core ./internal/fft ./internal/torus ./internal/obs

echo "== mesh hot path: allocation smoke =="
# One iteration of each mesh-path benchmark; the committed BENCH files
# record the full numbers, this gate just proves the path still builds,
# runs and reports allocations.
go test -run '^$' -bench 'BenchmarkFFT3D$|BenchmarkDistFFT' -benchtime 1x \
	./internal/fft >/dev/null

echo "== trace export: generate + validate =="
# Drive a short instrumented run, then validate the exported Chrome
# trace: parses, round-trips through encoding/json, monotonic ts.
tracefile="$(mktemp /tmp/anton-trace-XXXXXX.json)"
trap 'rm -f "$tracefile"' EXIT
go run ./cmd/antonsim -system small -steps 30 -report 30 \
	-trace "$tracefile" -trace-nodes -watch >/dev/null
go run scripts/validate_trace.go "$tracefile"

echo "verify: OK"
