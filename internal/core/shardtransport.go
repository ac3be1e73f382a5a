package core

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"anton/internal/faults"
	"anton/internal/fixp"
)

// The reliable shard transport. In plain runs (no fault plane attached)
// the transport is exactly PR 4's: blocking buffered-channel sends and
// counted receives, with no protocol overhead. With a supervisor
// attached (EnableFaults) every remote message becomes an envelope
// carrying a recovery epoch, the exchange id, and a payload CRC32; the
// receiver acks each accepted or duplicate envelope, and the sender
// retransmits unacked messages on a bounded-exponential-backoff timer.
// Delivery becomes exactly-once at the application layer:
//
//   - staleness: an envelope whose (epoch, xid) is not the current
//     exchange is discarded before its payload is touched — its backing
//     buffer may already be refilled by a later exchange;
//   - integrity: a CRC mismatch (injected bit-flip) is discarded without
//     an ack, so the sender's timeout retransmits it;
//   - idempotence: per-sender xid stamps accept exactly one message per
//     (sender, kind) per exchange; duplicates are discarded but re-acked,
//     because the duplicate may mean the first ack was lost.
//
// Every reliable-mode channel send is non-blocking: a full buffer counts
// as a drop and the retransmission timer recovers it, so no injected
// schedule can deadlock the pipeline. Co-located states (one executor
// running several shards after a crash adoption) exchange loopback
// envelopes that bypass the plane and the ack protocol but still travel
// through the inbox, preserving the owner-assign-before-merge ordering of
// the force exchange; a full inbox diverts them to a pending queue only
// the owning executor touches.
//
// Determinism: none of this machinery can change a bit of the trajectory.
// Each exchange applies exactly the message set the plain transport
// would, and all accumulation is wrapping fixed-point (associative and
// commutative), so arrival order — however mangled by drops, delays and
// retransmits — is invisible to the physics.

// Retransmission timer bounds (quiescence timeout, doubled per firing).
const (
	rtoBase = 2 * time.Millisecond
	rtoMax  = 64 * time.Millisecond
)

// msgAck is the fault-plane message kind for acks (the data kinds are
// msgPos/msgForce/msgForceLong); acks are never corrupted (no payload)
// and duplicating one is harmless, so only drop/delay verdicts apply.
const msgAck uint8 = 3

// Envelope flags.
const msgLoopback uint8 = 1 // co-located delivery: pre-acked, never faulted

// shardAck acknowledges one accepted (or duplicate) data envelope.
type shardAck struct {
	from  int32
	kind  uint8
	epoch uint32
	xid   uint32
}

// xchg identifies one transport exchange: the driver mints a fresh xid
// per stage so stale envelopes from earlier exchanges (or earlier
// recovery epochs) are recognizable before their payloads are read.
type xchg struct {
	step  int64
	xid   uint32
	epoch uint32
	plane *faults.Plane
	abort <-chan struct{}
}

func (x *xchg) reliable() bool { return x.plane != nil }

// newExchange mints the next exchange. Driver-serial.
func (s *Sharded) newExchange() *xchg {
	s.xid++
	x := &xchg{step: int64(s.E.step), xid: s.xid}
	if s.sup != nil {
		x.epoch = s.sup.epoch
		x.plane = s.sup.plane
		x.abort = s.sup.abort
	}
	return x
}

// outMsg tracks one in-flight reliable send until its ack arrives.
type outMsg struct {
	dst     int32
	kind    uint8
	attempt int
	acked   bool
	m       shardMsg
}

// Payload sizes as the transport carries them: three int32 fixed-point
// coordinates per position, three int64 components per force.
const (
	posPayloadBytes   = 12
	forcePayloadBytes = 24
)

// transportTally is one shard's transport accounting, read by the driver
// between stages only. The exchange fields (BlockedNs and the payload
// bytes) are recorded in every run; the rest only under EnableFaults.
type transportTally struct {
	BlockedNs  int64 // wall ns blocked on a receive
	PosBytes   int64 // position payload bytes of remote sends
	ForceBytes int64 // force payload bytes of remote sends

	Sends         int64 // remote data envelopes first-transmitted
	Loopbacks     int64 // co-located deliveries (pre-acked)
	Retransmits   int64 // timeout-driven re-sends
	DupDiscards   int64 // duplicate envelopes dropped by the xid stamps
	CrcDiscards   int64 // envelopes dropped by the payload CRC check
	StaleDiscards int64 // envelopes from an earlier exchange or epoch
	AckDrops      int64 // acks lost to a full ack channel
	FullDrops     int64 // data envelopes lost to a full inbox
}

func (t *transportTally) add(o transportTally) {
	t.BlockedNs += o.BlockedNs
	t.PosBytes += o.PosBytes
	t.ForceBytes += o.ForceBytes
	t.Sends += o.Sends
	t.Loopbacks += o.Loopbacks
	t.Retransmits += o.Retransmits
	t.DupDiscards += o.DupDiscards
	t.CrcDiscards += o.CrcDiscards
	t.StaleDiscards += o.StaleDiscards
	t.AckDrops += o.AckDrops
	t.FullDrops += o.FullDrops
}

// TransportStats is the summed transport accounting of a sharded run.
// The reliable-transport counts (Sends through FullDrops) are zero in
// plain runs. The trajectory is bitwise invariant under any schedule;
// these counts are not — spurious retransmits depend on wall timing — so
// tests assert on the trajectory and treat these as diagnostics.
type TransportStats struct {
	Sends         int64 `json:"sends"`
	Loopbacks     int64 `json:"loopbacks"`
	Retransmits   int64 `json:"retransmits"`
	DupDiscards   int64 `json:"dup_discards"`
	CrcDiscards   int64 `json:"crc_discards"`
	StaleDiscards int64 `json:"stale_discards"`
	AckDrops      int64 `json:"ack_drops"`
	FullDrops     int64 `json:"full_drops"`

	// Exchange accounting, recorded in plain and supervised runs alike.
	// BlockedNs is the wall time shards spent blocked on a receive,
	// summed over shards. The raw byte fields count the payload of remote
	// sends (12 B per position, 24 B per force triple; loopbacks and
	// retransmits excluded) and are a function of the trajectory alone.
	// Frames go out uncompressed, so each wire field equals its raw
	// field, and no compute runs while an exchange is open, so OverlapNs
	// is always 0; both are kept for existing readers of this struct.
	OverlapNs      int64 `json:"overlap_ns"`
	BlockedNs      int64 `json:"blocked_ns"`
	PosRawBytes    int64 `json:"pos_raw_bytes"`
	PosWireBytes   int64 `json:"pos_wire_bytes"`
	ForceRawBytes  int64 `json:"force_raw_bytes"`
	ForceWireBytes int64 `json:"force_wire_bytes"`
}

// TransportStats sums the per-shard transport tallies. Call it between
// Step calls (driver-serial), e.g. from an OnStep hook.
func (s *Sharded) TransportStats() TransportStats {
	t := s.transportTotals()
	return TransportStats{
		Sends:          t.Sends,
		Loopbacks:      t.Loopbacks,
		Retransmits:    t.Retransmits,
		DupDiscards:    t.DupDiscards,
		CrcDiscards:    t.CrcDiscards,
		StaleDiscards:  t.StaleDiscards,
		AckDrops:       t.AckDrops,
		FullDrops:      t.FullDrops,
		BlockedNs:      t.BlockedNs,
		PosRawBytes:    t.PosBytes,
		PosWireBytes:   t.PosBytes,
		ForceRawBytes:  t.ForceBytes,
		ForceWireBytes: t.ForceBytes,
	}
}

// transportTotals sums the per-shard transport tallies. Driver-serial.
func (s *Sharded) transportTotals() transportTally {
	var t transportTally
	for _, st := range s.shards {
		t.add(st.tstats)
	}
	return t
}

// TransportCounts returns cumulative (sends, retransmits) — the health
// watchdog's retry-storm source (see Watch.WatchTransport).
func (s *Sharded) TransportCounts() (sends, retransmits int64) {
	t := s.TransportStats()
	return t.Sends, t.Retransmits
}

// beginSend resets the shard's in-flight send tracking for one exchange.
func (st *shardState) beginSend() {
	st.out = st.out[:0]
}

// sendMsg transmits one data message, dispatching on transport mode.
func (st *shardState) sendMsg(x *xchg, dst int32, kind uint8, pos []fixp.Vec3, f []Force3) {
	if !x.reliable() {
		st.notePayload(pos, f)
		st.s.shards[dst].inbox <- shardMsg{from: st.id, kind: kind, pos: pos, f: f}
		return
	}
	m := shardMsg{from: st.id, kind: kind, epoch: x.epoch, xid: x.xid, pos: pos, f: f}
	sup := st.s.sup
	if sup.execOf[dst] == sup.execOf[st.id] {
		// Co-located: the receiving state runs on this goroutine later in
		// the stage, so the protocol loop could never ack our send — mark
		// the envelope pre-acked and deliver directly. The pending queue
		// makes delivery infallible even with a flooded inbox (only the
		// owning executor — us — touches it).
		m.flags = msgLoopback
		st.tstats.Loopbacks++
		d := st.s.shards[dst]
		select {
		case d.inbox <- m:
		default:
			d.pending = append(d.pending, m)
		}
		return
	}
	st.notePayload(pos, f)
	m.crc = st.payloadCRC(pos, f)
	st.out = append(st.out, outMsg{dst: dst, kind: kind, attempt: 1, m: m})
	st.tstats.Sends++
	st.deliver(x, &st.out[len(st.out)-1])
}

// notePayload counts one remote send's payload bytes.
func (st *shardState) notePayload(pos []fixp.Vec3, f []Force3) {
	st.tstats.PosBytes += int64(len(pos)) * posPayloadBytes
	st.tstats.ForceBytes += int64(len(f)) * forcePayloadBytes
}

// deliver pushes one attempt of an in-flight message through the fault
// plane. Attempts at or past the plane's SafeAttempt always deliver, so
// the retransmission loop terminates under every schedule.
func (st *shardState) deliver(x *xchg, o *outMsg) {
	m := o.m
	if o.attempt <= 255 {
		m.attempt = uint8(o.attempt)
	} else {
		m.attempt = 255
	}
	dst := st.s.shards[o.dst]
	switch v := x.plane.Message(x.step, x.xid, o.kind, st.id, o.dst, o.attempt); v.Act {
	case faults.ActDrop:
		return
	case faults.ActCorrupt:
		// Flip one payload bit in a copy; the CRC still covers the
		// original bytes, so the receiver discards the envelope and the
		// retransmission timer recovers it.
		if !trySend(dst.inbox, corruptMsg(m, v.Raw)) {
			st.tstats.FullDrops++
		}
	case faults.ActDup:
		for i := 0; i < 2; i++ {
			if !trySend(dst.inbox, m) {
				st.tstats.FullDrops++
			}
		}
	case faults.ActDelay:
		// Deliver late from a helper goroutine (reordering). The helper
		// never reads the payload and never touches shard tallies — the
		// receiver's staleness check makes the buffer aliasing safe.
		go func(ch chan shardMsg, m shardMsg, ns int64, closed <-chan struct{}) {
			t := time.NewTimer(time.Duration(ns))
			defer t.Stop()
			select {
			case <-t.C:
				trySend(ch, m)
			case <-closed:
			}
		}(dst.inbox, m, v.DelayNs, st.s.closed)
	default:
		if !trySend(dst.inbox, m) {
			st.tstats.FullDrops++
		}
	}
}

// sendAck acknowledges a data envelope back to its sender, routed through
// the fault plane under the msgAck kind (drop and delay verdicts apply;
// an ack has no payload to corrupt and duplicating it is harmless, so
// those verdicts degrade to delivery).
func (st *shardState) sendAck(x *xchg, m *shardMsg) {
	a := shardAck{from: st.id, kind: m.kind, epoch: m.epoch, xid: m.xid}
	dst := st.s.shards[m.from]
	switch v := x.plane.Message(x.step, m.xid, msgAck, st.id, m.from, int(m.attempt)); v.Act {
	case faults.ActDrop:
		return
	case faults.ActDelay:
		go func(ch chan shardAck, a shardAck, ns int64, closed <-chan struct{}) {
			t := time.NewTimer(time.Duration(ns))
			defer t.Stop()
			select {
			case <-t.C:
				select {
				case ch <- a:
				default:
				}
			case <-closed:
			}
		}(dst.acks, a, v.DelayNs, st.s.closed)
	default:
		select {
		case dst.acks <- a:
		default:
			st.tstats.AckDrops++
		}
	}
}

// runProtocol drives one exchange to completion: apply `expect` distinct
// messages (apply returns false for duplicates and foreign kinds) and, in
// reliable mode, retransmit every send on the backoff timer until it is
// *settled*. Returns false if the supervisor aborted the stage — the
// shard's local state is then garbage, and recovery restores everything
// from the checkpoint.
//
// Settled means acked, OR transmitted beyond the plane's safe attempt
// (which the plane guarantees to deliver). The second arm matters: the
// exchange must not *require* acks to complete, because the final ack of
// an exchange has no retransmission backstop — the receiver that sent it
// moves on and parks, and a parked shard cannot re-ack. Waiting on a
// dropped final ack would wedge the sender in the old stage until the
// heartbeat aborts it, turning a routine ack drop into a full rollback.
// With settle-by-attempt, acks only stop retransmission early; delivery
// itself is guaranteed by the safe-attempt rule (a full-inbox drop at the
// safe attempt is the one residual loss, and the heartbeat rollback is
// the backstop for that).
func (st *shardState) runProtocol(x *xchg, expect int, apply func(*shardMsg) bool) bool {
	if !x.reliable() {
		for applied := 0; applied < expect; {
			var m shardMsg
			select {
			case m = <-st.inbox:
			default:
				// Nothing queued: this wait is blocked-on-recv time.
				t0 := time.Now()
				m = <-st.inbox
				st.tstats.BlockedNs += int64(time.Since(t0))
			}
			if apply(&m) {
				applied++
			}
		}
		return true
	}
	applied := 0
	// Loopback envelopes diverted by a full inbox are consumed first;
	// they carry the current xid, so ordinary handling applies.
	for i := range st.pending {
		st.handleData(x, &st.pending[i], apply, &applied)
	}
	st.pending = st.pending[:0]
	settle := x.plane.Spec().SafeAttempt + 2
	unsettled := 0
	for i := range st.out {
		if o := &st.out[i]; !o.acked && o.attempt < settle {
			unsettled++
		}
	}
	rto := rtoBase
	timer := time.NewTimer(rto)
	defer timer.Stop()
	for applied < expect || unsettled > 0 {
		progressed := false
		// The select wait is blocked-on-recv time (an already-queued
		// message returns immediately and adds ~nothing).
		t0 := time.Now()
		select {
		case m := <-st.inbox:
			st.handleData(x, &m, apply, &applied)
			progressed = true
		case a := <-st.acks:
			if a.epoch == x.epoch && a.xid == x.xid {
				for i := range st.out {
					o := &st.out[i]
					if !o.acked && o.dst == a.from && o.kind == a.kind {
						o.acked = true
						if o.attempt < settle {
							unsettled--
						}
						break
					}
				}
			}
			progressed = true
		case <-x.abort:
			return false
		case <-timer.C:
			// Quiescence timeout: retransmit everything unsettled and back
			// off. The plane never faults attempts >= SafeAttempt, so every
			// message reaches its inbox within a bounded attempt count.
			for i := range st.out {
				o := &st.out[i]
				if o.acked || o.attempt >= settle {
					continue
				}
				o.attempt++
				st.tstats.Retransmits++
				st.deliver(x, o)
				if o.attempt >= settle {
					unsettled--
				}
			}
			if rto < rtoMax {
				rto *= 2
			}
			timer.Reset(rto)
		}
		st.tstats.BlockedNs += int64(time.Since(t0))
		if progressed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(rto)
		}
	}
	return true
}

// handleData runs one received envelope through the staleness, integrity
// and idempotence layers, then the apply closure.
func (st *shardState) handleData(x *xchg, m *shardMsg, apply func(*shardMsg) bool, applied *int) {
	if m.epoch != x.epoch || m.xid != x.xid {
		// From an earlier exchange or recovery epoch: the sender may
		// already be refilling the payload's backing buffer — discard
		// without touching it.
		st.tstats.StaleDiscards++
		return
	}
	loopback := m.flags&msgLoopback != 0
	if !loopback && st.payloadCRC(m.pos, m.f) != m.crc {
		// Corrupted in flight. No ack: the sender's timeout retransmits.
		st.tstats.CrcDiscards++
		return
	}
	if apply(m) {
		*applied++
	} else {
		st.tstats.DupDiscards++
	}
	if !loopback {
		// Ack duplicates too — a duplicate usually means the first ack
		// was lost or is still in flight.
		st.sendAck(x, m)
	}
}

// payloadCRC checksums an envelope payload (exactly one of pos/f is
// non-nil) into the shard's scratch buffer.
func (st *shardState) payloadCRC(pos []fixp.Vec3, f []Force3) uint32 {
	buf := st.crcBuf[:0]
	for _, p := range pos {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.X))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Y))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Z))
	}
	for _, v := range f {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.X))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Y))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Z))
	}
	st.crcBuf = buf
	return crc32.ChecksumIEEE(buf)
}

// corruptMsg returns the envelope with one payload bit flipped in a
// private copy (the original buffer belongs to the sender and may be
// retransmitted intact).
func corruptMsg(m shardMsg, raw uint64) shardMsg {
	switch {
	case len(m.pos) > 0:
		cp := make([]fixp.Vec3, len(m.pos))
		copy(cp, m.pos)
		bit := raw % uint64(len(cp)*96)
		i, rem := bit/96, bit%96
		mask := fixp.F32(1) << (rem % 32)
		switch rem / 32 {
		case 0:
			cp[i].X ^= mask
		case 1:
			cp[i].Y ^= mask
		default:
			cp[i].Z ^= mask
		}
		m.pos = cp
	case len(m.f) > 0:
		cp := make([]Force3, len(m.f))
		copy(cp, m.f)
		bit := raw % uint64(len(cp)*192)
		i, rem := bit/192, bit%192
		mask := int64(1) << (rem % 64)
		switch rem / 64 {
		case 0:
			cp[i].X ^= mask
		case 1:
			cp[i].Y ^= mask
		default:
			cp[i].Z ^= mask
		}
		m.f = cp
	}
	return m
}

// trySend is a non-blocking channel send (reliable mode only; a full
// buffer is a counted drop recovered by retransmission). It is tally-free
// so delayed-delivery goroutines can share it.
func trySend(ch chan shardMsg, m shardMsg) bool {
	select {
	case ch <- m:
		return true
	default:
		return false
	}
}

// drainMsgs / drainAcks empty a channel's buffer (recovery quiesce).
func drainMsgs(ch chan shardMsg) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func drainAcks(ch chan shardAck) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
