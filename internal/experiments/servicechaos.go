package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"anton/internal/faults"
	"anton/internal/ledger"
	"anton/internal/obs"
	"anton/internal/service"
)

// ServiceChaosJob is one job's outcome in the service-chaos campaign:
// what the hostile storage plane did to it, and the proof that survival
// cost nothing — its final digest must be bitwise equal to the digest of
// the same spec run with no daemon, no checkpoints and no faults.
type ServiceChaosJob struct {
	ID     string `json:"id"`
	Seed   int64  `json:"seed"`
	Shards int    `json:"shards"`
	State  string `json:"state"`
	Step   int    `json:"step"`

	Digest       string `json:"digest"`
	Reference    string `json:"reference_digest"`
	BitwiseMatch bool   `json:"bitwise_match"`

	Attempts int `json:"attempts"`
	Resumes  int `json:"resumes"`

	LedgerVerified bool   `json:"ledger_verified"`
	LedgerRecords  uint64 `json:"ledger_records"`
	LedgerCommits  uint64 `json:"ledger_commits"`
}

// ServiceChaosData is the structured record of the service-chaos
// experiment (the BENCH_servicechaos.json artifact): a seeded campaign
// of storage faults — ENOSPC, EIO, torn writes, stalls, and scheduled
// whole-process crashes at rotating persist points — run against antond
// jobs, with the daemon killed and rebooted after every crash until all
// jobs converge.
type ServiceChaosData struct {
	Schema string `json:"schema"`
	System string `json:"system"`
	Steps  int    `json:"steps"`
	Spec   string `json:"fs_spec"`

	Jobs []ServiceChaosJob `json:"jobs"`

	// Restarts counts kill/reboot/new-daemon cycles forced by scheduled
	// crashes; WallMs is the whole campaign including them.
	Restarts int     `json:"restarts"`
	WallMs   float64 `json:"wall_ms"`

	// Supervision counters, accumulated across daemon generations.
	PersistRetries int64 `json:"persist_retries"`
	JobRequeues    int64 `json:"job_requeues"`
	Quarantines    int64 `json:"quarantines"`
	StorageFaults  int64 `json:"storage_faults"`

	// Injected is the fault plane's own per-class ledger — the ground
	// truth that the campaign actually fired every fault class.
	Injected faults.FSCounts `json:"injected"`

	// A healthy campaign ends with an idle pool: nothing wedged on a
	// fault path, nothing silently stuck in the queue.
	WedgedWorkers int `json:"wedged_workers"`
	QueueDepth    int `json:"queue_depth"`
}

// serviceChaosFSSpec is the campaign's standard storage-fault mix:
// every recoverable fault class at rates that hit most persist
// boundaries, plus six scheduled crashes so the rotating crash-point
// cursor covers all five persist points (before-write, mid-write,
// after-write, after-sync, after-rename) at least once. Fsync-drop is
// deliberately absent: dropped syncs are recoverable only by
// quarantine, not by replay, and this experiment's acceptance bar is
// bitwise-identical convergence.
const serviceChaosFSSpec = "seed=11,enospc=0.05,eio=0.03,torn=0.05,stall=0.02,maxstall=2ms,crashes=6,horizon=48"

// ServiceChaos runs the service-chaos campaign and renders the
// plain-text report.
func ServiceChaos(steps int) (string, error) {
	d, err := serviceChaosData(steps)
	if err != nil {
		return "", err
	}
	return renderServiceChaos(d), nil
}

// ServiceChaosJSON runs the service-chaos campaign and returns the
// structured record as indented JSON — the generator of the committed
// BENCH_servicechaos.json artifact (make servicechaos).
func ServiceChaosJSON(steps int) ([]byte, error) {
	d, err := serviceChaosData(steps)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func serviceChaosData(steps int) (*ServiceChaosData, error) {
	fspec, err := faults.ParseFSSpec(serviceChaosFSSpec)
	if err != nil {
		return nil, err
	}
	fs := faults.NewFS(fspec)

	dir, err := os.MkdirTemp("", "servicechaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Two jobs, eight shards each: checkpoints, ledger appends and
	// status writes from two workers interleave on the faulty disk, so
	// persist-order bugs that a single job would mask get a chance to
	// corrupt a neighbour.
	specs := []service.JobSpec{
		{System: "small", Steps: steps, CheckpointEvery: 10, Seed: 5, Shards: 8,
			IdempotencyKey: "servicechaos-seed5"},
		{System: "small", Steps: steps, CheckpointEvery: 10, Seed: 9, Shards: 8,
			IdempotencyKey: "servicechaos-seed9"},
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	mk := func() (*service.Daemon, error) {
		return service.New(service.Config{
			StateDir:   dir,
			Workers:    2,
			StorageFS:  fs,
			RetryBase:  time.Millisecond,
			JobRetries: 10,
			Logger:     quiet,
		})
	}

	d := &ServiceChaosData{
		Schema: obs.SchemaVersion,
		System: "small",
		Steps:  steps,
		Spec:   serviceChaosFSSpec,
	}

	// A scheduled crash can fire during startup recovery itself (the
	// recovery scan persists queued flips). That is still just a crash:
	// reboot the disk and boot again, like init restarting a daemon that
	// died coming up.
	boot := func() (*service.Daemon, error) {
		for {
			dm, err := mk()
			if err == nil {
				dm.Start()
				return dm, nil
			}
			if !faults.IsCrash(err) {
				return nil, err
			}
			fs.Reboot()
		}
	}

	dm, err := boot()
	if err != nil {
		return nil, err
	}

	// Submission itself runs against the hostile disk (the store
	// persists the new job record), so a submit can fail with an
	// injected fault or land mid-crash. The client contract is the cure:
	// retry with an idempotency key, and a duplicate lands on the
	// original job — across daemon restarts too, since the key index is
	// rebuilt from the scan.
	ids := make([]string, len(specs))
	ensureSubmitted := func() error {
		for i := range specs {
			if ids[i] != "" {
				continue
			}
			js, _, err := dm.Submit(specs[i])
			if err != nil {
				if faults.IsInjected(err) || faults.IsCrash(err) {
					return nil // transient or crashed mid-submit: retry next tick
				}
				return err
			}
			ids[i] = js.ID
		}
		return nil
	}

	// Stats counters die with each daemon generation; fold them into the
	// record before every kill and once after convergence.
	harvest := func(s *obs.ServiceStats) {
		d.PersistRetries += s.PersistRetries.Load()
		d.JobRequeues += s.JobRequeues.Load()
		d.Quarantines += s.Quarantines.Load()
		d.StorageFaults += s.StorageFaults.Load()
	}

	start := time.Now()
	deadline := start.Add(10 * time.Minute)
	for {
		if time.Now().After(deadline) {
			dm.Kill()
			return nil, fmt.Errorf("experiments: service chaos campaign did not converge after %d restarts", d.Restarts)
		}
		if dm.StorageCrashed() {
			// The fault plane fired a scheduled crash mid-persist: every
			// subsequent storage op fails until reboot, exactly like a
			// machine losing power. Kill the daemon, reboot the "disk"
			// (dirty pages beyond the durable prefix are discarded), and
			// bring up a fresh daemon over the surviving state.
			harvest(dm.Stats())
			dm.Kill()
			fs.Reboot()
			d.Restarts++
			dm, err = boot()
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := ensureSubmitted(); err != nil {
			dm.Kill()
			return nil, err
		}
		allDone := true
		for _, id := range ids {
			if id == "" {
				allDone = false
				break
			}
			js, ok := dm.Job(id)
			if !ok || !js.State.Terminal() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	harvest(dm.Stats())
	d.Injected = fs.Counts()
	// Workers count as busy through their deferred cleanup, a moment
	// after the terminal state the loop above saw: sample the pool once
	// it is idle, or after a grace only a worker that never returns hits.
	dm.AwaitIdle(30 * time.Second)
	d.WedgedWorkers = dm.BusyWorkers()
	d.QueueDepth = dm.QueueDepth()
	defer dm.Kill()

	for i, id := range ids {
		js, _ := dm.Job(id)
		ref, err := serviceChaosReference(specs[i])
		if err != nil {
			return nil, err
		}
		row := ServiceChaosJob{
			ID:           js.ID,
			Seed:         specs[i].Seed,
			Shards:       specs[i].Shards,
			State:        string(js.State),
			Step:         js.Step,
			Digest:       js.Digest,
			Reference:    ref,
			BitwiseMatch: js.Digest == ref,
			Attempts:     js.Attempts,
			Resumes:      js.Resumes,
		}
		if rep, err := ledger.VerifyFile(dm.LedgerPath(id)); err == nil {
			row.LedgerVerified = true
			row.LedgerRecords = rep.Records
			row.LedgerCommits = rep.Commits
		}
		d.Jobs = append(d.Jobs, row)

		if js.State != service.StateDone {
			return nil, fmt.Errorf("experiments: service chaos job %s ended %s (err %q), want done", id, js.State, js.Error)
		}
		if !row.BitwiseMatch {
			return nil, fmt.Errorf("experiments: service chaos job %s digest %s != reference %s after %d restarts",
				id, js.Digest, ref, d.Restarts)
		}
		if !row.LedgerVerified {
			return nil, fmt.Errorf("experiments: service chaos job %s ledger fails verification", id)
		}
	}
	if d.WedgedWorkers != 0 || d.QueueDepth != 0 {
		return nil, fmt.Errorf("experiments: service chaos left a wedged pool: busy=%d depth=%d",
			d.WedgedWorkers, d.QueueDepth)
	}
	return d, nil
}

// serviceChaosReference runs the spec's trajectory directly — no
// daemon, no checkpoints, no faults — and returns the final-step
// digest: the identity every surviving job must reproduce bitwise.
func serviceChaosReference(spec service.JobSpec) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	sim, _, sh, err := service.BuildSim(spec)
	if err != nil {
		return "", err
	}
	if sh != nil {
		defer sh.Close()
	}
	sim.Step(spec.Steps)
	return fmt.Sprintf("%016x", sim.StateDigest()), nil
}

// renderServiceChaos formats the structured record as the experiment's
// plain-text report.
func renderServiceChaos(d *ServiceChaosData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Service chaos campaign (%s, %d steps per job, %d jobs):\n",
		d.System, d.Steps, len(d.Jobs))
	fmt.Fprintf(&b, "storage faults: %s\n", d.Spec)
	fmt.Fprintf(&b, "%-12s %6s %6s %8s %8s %7s %7s %7s  %s\n",
		"job", "shards", "state", "attempts", "resumes", "ledger", "commits", "records", "bitwise")
	for _, j := range d.Jobs {
		match := "match"
		if !j.BitwiseMatch {
			match = "DIVERGED"
		}
		lv := "ok"
		if !j.LedgerVerified {
			lv = "FAIL"
		}
		fmt.Fprintf(&b, "%-12s %6d %6s %8d %8d %7s %7d %7d  %s\n",
			j.ID, j.Shards, j.State, j.Attempts, j.Resumes, lv, j.LedgerCommits, j.LedgerRecords, match)
	}
	fmt.Fprintf(&b, "campaign: %d restarts, %.0f ms wall; %d persist retries, %d requeues, %d quarantines, %d storage faults surfaced\n",
		d.Restarts, d.WallMs, d.PersistRetries, d.JobRequeues, d.Quarantines, d.StorageFaults)
	fmt.Fprintf(&b, "injected: enospc=%d eio=%d torn=%d stalls=%d crashes=%d fired (writes=%d reads=%d)\n",
		d.Injected.Enospc, d.Injected.Eio, d.Injected.Torn, d.Injected.Stalls,
		d.Injected.CrashesFired, d.Injected.Writes, d.Injected.Reads)
	fmt.Fprintf(&b, "pool after campaign: busy=%d queued=%d\n", d.WedgedWorkers, d.QueueDepth)
	return b.String()
}
