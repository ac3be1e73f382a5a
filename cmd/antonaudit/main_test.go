package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"anton/internal/ledger"
	"anton/internal/service"
)

// TestReplayLegacyOverlapGenesis: ledgers written when the job spec
// still carried the pipeline-mode field ("overlap": "on" or "off") must
// still replay — the genesis spec decodes leniently, so the field is
// ignored and the rebuilt run lands on the recorded digest.
func TestReplayLegacyOverlapGenesis(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second simulation test in -short mode")
	}
	spec := service.JobSpec{System: "small", Steps: 20, Shards: 8, Seed: 2}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	sim, eng, sh, err := service.BuildSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := eng.FingerprintHex()
	sim.Step(spec.Steps)
	digest := sim.StateDigest()
	sh.Close()

	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"on", "off"} {
		b := bytes.Replace(specJSON, []byte("{"), []byte(`{"overlap":"`+mode+`",`), 1)
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ledger")
		lw, err := ledger.Create(path, ledger.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lw.AppendGenesis(ledger.Genesis{
			Spec: b, Fingerprint: fingerprint, System: spec.System, Atoms: eng.Sys.NAtoms(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := lw.AppendDigest(int64(spec.Steps), digest); err != nil {
			t.Fatal(err)
		}
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}

		if _, err := ledger.VerifyFile(path); err != nil {
			t.Fatalf("overlap=%s: %v", mode, err)
		}
		recs, err := ledger.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayAudit(recs, -1, dir); err != nil {
			t.Fatalf("overlap=%s: replay: %v", mode, err)
		}
	}
}
