package core

import (
	"anton/internal/htis"
	"anton/internal/obs"
)

// The sharded step pipeline. Each stage is a closure broadcast to every
// shard through its command channel; the driver's wait between stages is
// the barrier. Within a stage a shard first performs all its sends, then
// receives its expected message count — the inboxes are buffered to hold
// a full exchange, so sends never block and a stage cannot deadlock.
//
// Stage map (driver-serial collectives marked *):
//
//	S1  integratePre     half-kick, drift (owned atoms)
//	S2  constrainPre     SHAKE + virtual-site placement (owned groups)
//	 *  decode/residency position cache refresh, early-migration check
//	S3  exchangePositions   position import messages; local views refresh
//	S4  compute          range-limited pairs, bonded, 1-4; on refresh:
//	                     exclusion corrections + mesh charge spreading
//	 *  mergeMesh        wrapping merge of shard mesh counts; FFT convolve
//	S5  interpolate      (refresh) long-range force interpolation (owned)
//	S6  mergeForces      force export messages; owner merges + vsite spread
//	 *  diagnostics      float energy/tally merge in ascending shard order
//	S7  integratePost    half-kick (owned atoms)
//	S8  constrainPost    RATTLE (owned groups); * Berendsen collective
//	 *  migration        deferred migration + view rebuild when due
//
// The phases reported to the observability layer are the monolithic
// engine's (no new phase enums): S1/S7 time as Integration, S2/S8 as
// Constraints, S3 as PairGather, S4 as PairMatch, S6 as PairReduce, and
// the collectives keep their monolithic phases.
//
// Under fault injection every stage can fail: a shard goroutine may have
// been crashed by the fault plane, leaving the stage barrier incomplete.
// stepOnce/computeForces then return a non-nil *stageFail instead of
// running the driver-serial collectives (whose inputs are garbage after a
// partial stage), and the supervisor rolls the whole engine back to the
// last checkpoint. That makes mid-step state after a failure irrelevant:
// correctness only requires that a *completed* step is bitwise identical
// to the monolithic one, which holds because the reliable transport
// applies exactly the plain transport's message set (exactly-once) and
// all accumulation is order-independent fixed-point.

// Pipeline stage identifiers — the "phase" key of the fault plane's
// deterministic draws (stalls are keyed by (step, stage, shard); crashes
// fire at the position exchange, before or after its send half).
const (
	stIntegratePre uint8 = iota
	stConstrainPre
	stExchangePos
	stCompute
	stInterpolate
	stMergeForces
	stIntegratePost
	stConstrainPost
)

// stageFail reports an incomplete stage barrier: the executors that never
// signaled completion (empty = spurious heartbeat timeout; every executor
// turned out to be alive, but the abort already poisoned the stage).
type stageFail struct {
	crashed []int32
}

// Step advances n time steps on the sharded pipeline. The trajectory is
// bitwise identical to Engine.Step for every shard count: all force and
// mesh accumulation is wrapping fixed-point (order-independent), each
// interaction is computed by exactly one shard from bit-copied positions,
// and every float collective runs driver-serial in the monolithic
// operation order. Under EnableFaults the same guarantee holds for every
// injected fault schedule; an unrecoverable failure parks the engine with
// Err() set.
func (s *Sharded) Step(n int) {
	if s.sup != nil {
		s.stepSupervised(n)
		return
	}
	if s.E.step == 0 && !s.primed {
		s.computeForces(true)
		s.primed = true
	}
	for i := 0; i < n; i++ {
		s.stepOnce()
	}
}

func (s *Sharded) stepOnce() *stageFail {
	e := s.E
	dt := e.Cfg.Dt
	withLongNow := e.step%e.Cfg.MTSInterval == 0
	cd := e.driftCoeff(dt)

	t0 := e.obsNow()
	if f := s.runEach(stIntegratePre, nil, func(st *shardState) { st.integratePre(dt, cd, withLongNow) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	t0 = e.obsNow()
	if f := s.runEach(stConstrainPre, nil, func(st *shardState) { st.constrainPre(dt) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseConstraints, t0)

	e.step++
	withLongNext := e.step%e.Cfg.MTSInterval == 0
	if f := s.computeForces(withLongNext); f != nil {
		return f
	}

	t0 = e.obsNow()
	if f := s.runEach(stIntegratePost, nil, func(st *shardState) { st.integratePost(dt, withLongNext) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	t0 = e.obsNow()
	if f := s.runEach(stConstrainPost, nil, func(st *shardState) { st.constrainPost() }); f != nil {
		return f
	}
	if e.Cfg.TauT > 0 {
		// Thermostat collective: the kinetic-energy sum runs in atom order
		// on the driver, so the scale factor matches the monolithic step.
		e.berendsenFixed()
	}
	e.obsPhase(obs.PhaseConstraints, t0)

	if e.step%e.Cfg.MigrationInterval == 0 {
		s.migrate()
	}
	e.Stats.Steps++
	if e.rec != nil {
		e.rec.StepDone()
	}
	if e.trc != nil {
		e.trc.StepDone(int64(e.step))
	}
	e.runStepHooks()
	return nil
}

// computeForces runs one force evaluation, mirroring
// Engine.computeForces stage for stage.
func (s *Sharded) computeForces(refresh bool) *stageFail {
	e := s.E

	t0 := e.obsNow()
	e.refreshPosCache()
	viol := e.residencyViolated()
	e.obsPhase(obs.PhaseDecode, t0)
	if viol {
		if e.rec != nil {
			e.rec.Add(obs.CtrResidencyMigrations, 1)
		}
		s.migrate()
	}

	t0 = e.obsNow()
	x := s.newExchange()
	if f := s.runEach(stExchangePos,
		func(st *shardState) { st.sendPositions(x) },
		func(st *shardState) { st.recvPositions(x) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhasePairGather, t0)
	s.comm.noteImport(e.rec)

	t0 = e.obsNow()
	if f := s.runEach(stCompute, nil, func(st *shardState) { st.compute(refresh) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhasePairMatch, t0)

	if refresh {
		s.mergeMesh()
		t0 = e.obsNow()
		e.mesh.convolve(e.workers())
		e.obsPhase(obs.PhaseFFT, t0)
		t0 = e.obsNow()
		if f := s.runEach(stInterpolate, nil, func(st *shardState) { st.interpolate() }); f != nil {
			return f
		}
		e.obsPhase(obs.PhaseMeshInterp, t0)
	}

	t0 = e.obsNow()
	xf := s.newExchange()
	if f := s.runEach(stMergeForces,
		func(st *shardState) { st.sendForces(xf, refresh) },
		func(st *shardState) { st.recvForces(xf, refresh) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhasePairReduce, t0)
	s.comm.noteExport(e.rec, refresh)

	s.mergeDiagnostics(refresh)
	s.noteExchange()
	return nil
}

// noteExchange folds the evaluation's blocked-time and payload-byte
// deltas into the obs counters. Driver-serial; the cumulative totals
// surface through TransportStats.
func (s *Sharded) noteExchange() {
	e := s.E
	if e.rec == nil {
		return
	}
	t := s.transportTotals()
	e.rec.Add(obs.CtrStreamBlockedNs, t.BlockedNs-s.lastTally.BlockedNs)
	e.rec.Add(obs.CtrPosRawBytes, t.PosBytes-s.lastTally.PosBytes)
	e.rec.Add(obs.CtrForceRawBytes, t.ForceBytes-s.lastTally.ForceBytes)
	s.lastTally = t
}

// mergeMesh merges the shards' fixed-point mesh contributions into the
// canonical mesh (wrapping adds: order-independent) and measures the
// resulting mesh traffic — for every shard, the count of nonzero cells it
// contributed to each remote home box, one message per (src, dst) pair.
func (s *Sharded) mergeMesh() {
	e := s.E
	ms := e.mesh
	t0 := e.obsNow()
	workers := e.workers()
	shards := s.shards
	if len(s.meshCellRows) < len(shards) {
		s.meshCellRows = make([][]int64, len(shards))
		for i := range s.meshCellRows {
			s.meshCellRows[i] = make([]int64, e.grid.NumBoxes())
		}
	}
	// Canonical merge, parallel across disjoint cell ranges: each cell is
	// summed over shards in fixed shard order and written by exactly one
	// chunk (wrapping adds — order-independent anyway). Folded shards may
	// have no mesh buffer yet.
	parallelChunks(len(ms.counts), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var c int64
			for _, st := range shards {
				if len(st.meshCounts) == 0 {
					continue
				}
				c += st.meshCounts[i]
			}
			ms.counts[i] = c
		}
	})
	// Traffic measurement, parallel across shards: each shard's
	// per-destination row is written by exactly one chunk.
	parallelChunks(len(shards), workers, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			row := s.meshCellRows[si]
			for b := range row {
				row[b] = 0
			}
			for i, c := range shards[si].meshCounts {
				if c != 0 {
					row[s.cellBox[i]]++
				}
			}
		}
	})
	// The measured-comm notes land serially in ascending (shard, dst)
	// order, keeping the traffic ledger deterministic.
	var meshMsgs int64
	for si, st := range shards {
		for dst, cells := range s.meshCellRows[si] {
			if cells > 0 && int32(dst) != st.id {
				s.comm.noteMesh(int(st.id), dst, int(cells))
				meshMsgs++
			}
		}
	}
	if e.rec != nil && meshMsgs > 0 {
		e.rec.Add(obs.CtrShardMeshMsgs, meshMsgs)
	}
	e.obsPhase(obs.PhaseMeshSpread, t0)
}

// mergeDiagnostics folds the shards' float energies, pair tallies and
// virials in ascending shard order (deterministic for a fixed shard
// count; these sums feed reporting only, never dynamics).
func (s *Sharded) mergeDiagnostics(refresh bool) {
	e := s.E
	var merged tally
	var eRL, eBonded, eP14 float64
	var spread, interp int64
	if e.Cfg.TrackVirial {
		e.virial = htis.Virial{}
	}
	for _, st := range s.shards {
		eRL += st.energyRL
		eBonded += st.energyBonded
		eP14 += st.energyP14
		merged.Merge(&st.tally)
		if e.Cfg.TrackVirial {
			e.virial.Merge(&st.virial)
		}
		spread += st.spreadTally
		interp += st.interpTally
	}
	e.Breakdown.RangeLimited = eRL
	e.Breakdown.Bonded = eBonded
	e.Breakdown.Correction = eP14
	e.Stats.PairsConsidered += merged.Considered
	e.Stats.PairsMatched += merged.Matched
	e.Stats.PairsComputed += merged.Computed
	e.Stats.MeshInteractions += spread + interp
	if refresh {
		var eMesh, eExcl float64
		for _, st := range s.shards {
			eMesh += st.energyMesh
			eExcl += st.energyExcl
		}
		eMesh += e.Split.SelfEnergy(e.Sys.Top.Atoms)
		e.Breakdown.Mesh = eMesh + eExcl
		e.longRangeEnergy = e.Breakdown.Mesh
		if e.rec != nil {
			e.rec.Add(obs.CtrLongRangeEvals, 1)
		}
	} else {
		e.Breakdown.Mesh = e.longRangeEnergy
	}
	e.PotentialEnergy = e.Breakdown.Total()
	if e.rec != nil {
		e.rec.Add(obs.CtrPairsConsidered, merged.Considered)
		e.rec.Add(obs.CtrPairsMatched, merged.Matched)
		e.rec.Add(obs.CtrPairsComputed, merged.Computed)
		e.rec.Add(obs.CtrBatchFlushes, merged.BatchFlushes)
		e.rec.Add(obs.CtrBatchPairs, merged.BatchPairs)
		e.rec.AddOccupancy(merged.Occupancy)
		e.rec.AddPhaseBatch(obs.PhasePairPPIP, merged.PPIPNs, merged.BatchFlushes)
		if refresh {
			e.rec.Add(obs.CtrMeshInteractions, spread+interp)
		}
	}
	if e.trc != nil {
		w := e.workers()
		for _, st := range s.shards {
			e.trc.AddWorker(int(st.id)%w, st.tally.PPIPNs, st.tally.BatchFlushes)
		}
	}
}

// migrate runs the migration collective: settle the measured traffic
// accumulated under the old decomposition, migrate the monolithic state,
// count the atoms that changed home box as migration messages, and
// rebuild every shard view.
func (s *Sharded) migrate() {
	e := s.E
	s.comm.fold()
	copy(s.prevBoxOf, e.boxOf)
	e.migrate()
	var moved int64
	for i := range e.boxOf {
		if e.boxOf[i] != s.prevBoxOf[i] {
			s.comm.noteMigration(int(s.prevBoxOf[i]), int(e.boxOf[i]))
			moved++
		}
	}
	if e.rec != nil && moved > 0 {
		e.rec.Add(obs.CtrShardMigrationMsgs, moved)
	}
	s.rebuildViews()
	// The lane refresh inside Engine.migrate ran against the old views;
	// recompute against the fresh ones.
	if e.trc != nil && e.trc.NodeLanesEnabled() {
		e.refreshNodeLanes()
	}
}

// --- Shard stage bodies. Each runs on the shard's goroutine and touches
// only owned entries of the canonical arrays, its private buffers, and
// read-only shared state. ---

// integratePre: first half-kick, pre-drift snapshot, drift — owned atoms.
func (st *shardState) integratePre(dt, cd float64, withLong bool) {
	e := st.s.E
	top := e.Sys.Top
	for _, ai := range st.owned {
		a := int(ai)
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.kick(a, top.Atoms[a].Mass, dt/2, withLong)
	}
	for _, ai := range st.owned {
		a := int(ai)
		e.oldPos[a] = e.Pos[a]
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.driftAtom(a, cd)
	}
}

// constrainPre: SHAKE per owned group (group-local scratch), then owned
// virtual-site placement (the site and its parents share a group, so all
// reads are owner-local).
func (st *shardState) constrainPre(dt float64) {
	e := st.s.E
	for _, gi := range st.groups {
		e.shakeGroup(int(gi), e.oldPos, dt, st.shakeCur, st.shakeRef)
	}
	for _, vi := range st.vsites {
		e.placeVSite(&e.Sys.Top.VSites[vi])
	}
}

// sendPositions: multicast the home box's atoms to every importer (the
// send half of the position exchange).
func (st *shardState) sendPositions(x *xchg) {
	e := st.s.E
	for oi, a := range st.owned {
		st.posOut[oi] = e.Pos[a]
	}
	st.beginSend()
	for _, dst := range st.expDsts {
		st.sendMsg(x, dst, msgPos, st.posOut, nil)
	}
}

// recvPositions: receive the imports, refresh the local float/slot views,
// and zero the local accumulators for this evaluation.
func (st *shardState) recvPositions(x *xchg) {
	e := st.s.E
	shards := st.s.shards
	for _, a := range st.owned {
		st.lpos[a] = e.Pos[a]
	}
	ok := st.runProtocol(x, len(st.impSrcs), func(m *shardMsg) bool {
		if m.kind != msgPos {
			return false
		}
		if x.reliable() {
			if st.gotPos[m.from] == x.xid {
				return false
			}
			st.gotPos[m.from] = x.xid
		}
		for oi, a := range shards[m.from].owned {
			st.lpos[a] = m.pos[oi]
		}
		return true
	})
	if !ok {
		return // aborted: recovery restores everything from the checkpoint
	}
	k := &e.pk
	for _, a := range st.needAll {
		st.lposF[a] = e.Coder.Decode(st.lpos[a])
		st.lfShort[a] = Force3{}
	}
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			a := k.atomOf[slot]
			st.spos[slot] = st.lpos[a]
			st.sbuf[slot] = Force3{}
		}
	}
}

// compute: the shard's share of every force class. Range-limited pairs go
// through the shared pair kernel against the shard's slot views; bonded,
// 1-4 and (on refresh) exclusion terms run on the local position views;
// refresh steps also spread the owned atoms' charges onto the private
// mesh buffer.
func (st *shardState) compute(refresh bool) {
	e := st.s.E
	k := &e.pk
	top := e.Sys.Top

	st.energyRL, st.energyBonded, st.energyP14 = 0, 0, 0
	st.energyExcl, st.energyMesh = 0, 0
	st.tally = tally{}
	st.virial = htis.Virial{}
	st.spreadTally, st.interpTally = 0, 0

	e.pairScan(st.myPairs, st.spos, st.sbuf, &st.batch,
		&st.energyRL, &st.tally, &st.virial)
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			if f := st.sbuf[slot]; f != (Force3{}) {
				a := k.atomOf[slot]
				st.lfShort[a] = st.lfShort[a].Add(f)
			}
		}
	}

	for _, t := range st.bondTerms {
		st.energyBonded += e.bondedTerm(int(t), st.lposF, st.scratch, st.lfShort)
	}
	for _, pi := range st.pair14Idx {
		st.energyP14 += e.pair14One(&e.pair14[pi], st.lpos, st.lfShort)
	}

	if refresh {
		for _, a := range st.exclTouch {
			st.lfLong[a] = Force3{}
		}
		st.energyExcl = e.exclScan(st.exclTerms, st.lpos, st.lfLong)
		ms := e.mesh
		for i := range st.meshCounts {
			st.meshCounts[i] = 0
		}
		for _, a := range st.owned {
			q := top.Atoms[a].Charge
			if q == 0 {
				continue
			}
			st.spreadTally += ms.spreadAtom(q, st.lposF[a], st.meshCounts)
		}
	}
}

// interpolate (refresh steps): zero the owned long-range forces and add
// the mesh interpolation for owned charged atoms. Reads only the shared
// post-convolution mesh.
func (st *shardState) interpolate() {
	e := st.s.E
	ms := e.mesh
	top := e.Sys.Top
	for _, a := range st.owned {
		e.fLong[a] = Force3{}
	}
	for _, a := range st.owned {
		q := top.Atoms[a].Charge
		if q == 0 {
			continue
		}
		en, fx, fy, fz, n := ms.interpAtom(q, st.lposF[a])
		st.energyMesh += en
		e.fLong[a] = e.fLong[a].AddRaw(fx, fy, fz)
		st.interpTally += n
	}
}

// sendForces: export force contributions to the home boxes (the send half
// of the force merge).
func (st *shardState) sendForces(x *xchg, refresh bool) {
	st.beginSend()
	for di, dst := range st.impSrcs {
		out := st.footOut[di]
		for oi, a := range st.footAtoms[di] {
			out[oi] = st.lfShort[a]
		}
		st.sendMsg(x, dst, msgForce, nil, out)
	}
	if refresh {
		for di, dst := range st.exclFootDst {
			out := st.exclFootOut[di]
			for oi, a := range st.exclFootAtoms[di] {
				out[oi] = st.lfLong[a]
			}
			st.sendMsg(x, dst, msgForceLong, nil, out)
		}
	}
}

// recvForces: assemble the owned atoms' canonical forces from the local
// accumulation plus received messages, and finally spread virtual-site
// forces (only after the site's force is fully merged — the spread
// rounding is nonlinear in the total).
func (st *shardState) recvForces(x *xchg, refresh bool) {
	e := st.s.E
	for _, a := range st.owned {
		e.fShort[a] = st.lfShort[a]
	}
	if refresh {
		// Only the entries this shard's exclusion terms touched are valid
		// in lfLong (it is sparse-zeroed); the rest would be stale.
		for _, a := range st.exclTouchOwned {
			e.fLong[a] = e.fLong[a].Add(st.lfLong[a])
		}
	}

	expect := st.inFoot
	if refresh {
		expect += st.inExclFoot
	}
	ok := st.runProtocol(x, expect, func(m *shardMsg) bool {
		switch m.kind {
		case msgForce:
			if x.reliable() {
				if st.gotF[m.from] == x.xid {
					return false
				}
				st.gotF[m.from] = x.xid
			}
			for oi, a := range st.inFootFrom[m.from] {
				e.fShort[a] = e.fShort[a].Add(m.f[oi])
			}
			return true
		case msgForceLong:
			if !refresh {
				return false
			}
			if x.reliable() {
				if st.gotFL[m.from] == x.xid {
					return false
				}
				st.gotFL[m.from] = x.xid
			}
			for oi, a := range st.inExclFootFrom[m.from] {
				e.fLong[a] = e.fLong[a].Add(m.f[oi])
			}
			return true
		}
		return false
	})
	if !ok {
		return // aborted: recovery restores everything from the checkpoint
	}

	if refresh {
		for _, vi := range st.vsites {
			spreadVSiteForce(e.fLong, &e.Sys.Top.VSites[vi])
		}
	}
	for _, vi := range st.vsites {
		spreadVSiteForce(e.fShort, &e.Sys.Top.VSites[vi])
	}
}

// integratePost: second half-kick — owned atoms.
func (st *shardState) integratePost(dt float64, withLong bool) {
	e := st.s.E
	top := e.Sys.Top
	for _, ai := range st.owned {
		a := int(ai)
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.kick(a, top.Atoms[a].Mass, dt/2, withLong)
	}
}

// constrainPost: RATTLE per owned group.
func (st *shardState) constrainPost() {
	e := st.s.E
	for _, gi := range st.groups {
		e.rattleGroup(int(gi), st.rattleVel)
	}
}
