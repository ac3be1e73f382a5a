package core

import (
	"testing"

	"anton/internal/faults"
)

// Reorder campaigns: delay- and stall-heavy fault planes (no drops
// masking the reordering behind retransmit serialization) scramble
// message arrival across the reliable transport's exchanges, and the
// trajectory must still be bitwise the monolithic one, with the
// retransmit volume inside the bound the settle rule implies.

// TestShardChaosReorder: a delay/stall campaign at 8 shards reorders
// arrival for 150 steps (migrations and long-range refreshes inside the
// window). Bitwise invariance plus a hard retransmit bound: every
// envelope settles by attempt SafeAttempt+2, so retransmits can never
// exceed Sends*(SafeAttempt+1).
func TestShardChaosReorder(t *testing.T) {
	skipShort(t)
	const steps = 150

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sp, err := faults.ParseSpec("seed=11,delay=0.25,stall=0.01,maxstall=3ms")
	if err != nil {
		t.Fatal(err)
	}
	sh := smallWaterSharded(t, 8, nil)
	plane := faults.New(sp, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "reorder 8 shards")

	ts := sh.TransportStats()
	if ts.Sends == 0 {
		t.Fatal("campaign carried no remote traffic")
	}
	if bound := ts.Sends * int64(sp.SafeAttempt+1); ts.Retransmits > bound {
		t.Fatalf("retransmits %d exceed the settle bound %d (sends %d, safe attempt %d)",
			ts.Retransmits, bound, ts.Sends, sp.SafeAttempt)
	}
	if ts.BlockedNs == 0 {
		t.Fatal("delayed exchanges recorded no blocked-on-recv time")
	}
	if ts.PosRawBytes == 0 || ts.ForceRawBytes == 0 {
		t.Fatalf("remote sends carried no payload bytes: %+v", ts)
	}
}

// TestShardChaosReorder64: the same scrambling at 64 shards, where most
// shards import from many senders per exchange, for a shorter window that
// still crosses migrations and refreshes.
func TestShardChaosReorder64(t *testing.T) {
	skipShort(t)
	const steps = 60

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sp, err := faults.ParseSpec("seed=13,delay=0.15,dup=0.05,stall=0.004,maxstall=2ms")
	if err != nil {
		t.Fatal(err)
	}
	sh := smallWaterSharded(t, 64, nil)
	plane := faults.New(sp, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "reorder 64 shards")

	ts := sh.TransportStats()
	if bound := ts.Sends * int64(sp.SafeAttempt+1); ts.Retransmits > bound {
		t.Fatalf("retransmits %d exceed the settle bound %d (sends %d)",
			ts.Retransmits, bound, ts.Sends)
	}
}

// TestShardWireBytesDeterminism: the payload byte counts are a function
// of the trajectory, not the schedule — two identical 8-shard runs must
// agree exactly. Frames go out uncompressed, so wire equals raw.
func TestShardWireBytesDeterminism(t *testing.T) {
	skipShort(t)
	const steps = 60

	var first TransportStats
	for run := 0; run < 2; run++ {
		sh := smallWaterSharded(t, 8, nil)
		sh.Step(steps)
		if err := sh.Err(); err != nil {
			t.Fatalf("run %d parked: %v", run, err)
		}
		ts := sh.TransportStats()
		if ts.PosRawBytes == 0 || ts.ForceRawBytes == 0 {
			t.Fatalf("run %d carried no payload bytes: %+v", run, ts)
		}
		if ts.PosWireBytes != ts.PosRawBytes || ts.ForceWireBytes != ts.ForceRawBytes {
			t.Fatalf("run %d: wire bytes differ from raw bytes: %+v", run, ts)
		}
		if ts.OverlapNs != 0 {
			t.Fatalf("run %d: overlap recorded on a barrier pipeline: %+v", run, ts)
		}
		if run == 0 {
			first = ts
		} else if ts.PosRawBytes != first.PosRawBytes || ts.ForceRawBytes != first.ForceRawBytes {
			t.Fatalf("payload accounting differs across identical runs:\n  run 0: %+v\n  run 1: %+v", first, ts)
		}
	}
}
