package pipeline

import (
	"math/bits"

	"specmpk/internal/bpred"
	"specmpk/internal/core"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/stats"
	"specmpk/internal/trace"
)

// ---------------------------------------------------------------------------
// Fetch

func (m *Machine) fetchStage() {
	if m.fetchStopped || m.halted || m.fault != nil {
		return
	}
	if m.cycle < m.fetchStallTo {
		return
	}
	for n := 0; n < m.Cfg.Width && m.fqLen < len(m.fq); n++ {
		// The body always mutates machine state (fetch-queue push, stall
		// timer, or I-cache line bookkeeping), so this cycle cannot be
		// fast-forwarded over.
		m.progressed = true
		// Instruction-cache timing: charge only when crossing into a new
		// line; hit latency is pipelined away, misses stall fetch.
		line := m.pc>>6 + 1
		if line != m.curICLine {
			stall := m.fetchPenalty(m.pc)
			m.curICLine = line
			if stall > 0 {
				m.fetchStallTo = m.cycle + uint64(stall)
				return
			}
		}
		in, ok := m.Prog.InstAt(m.pc)
		if !ok {
			// Fetch wandered off the text segment (usually wrong path).
			// Enqueue a faulting marker and stop fetching; a squash or
			// retirement will sort it out.
			fe := m.fqPush()
			*fe = fqEntry{
				pc:        m.pc,
				in:        isa.Inst{Op: isa.OpNop},
				readyAt:   m.cycle + uint64(m.Cfg.FrontendDepth),
				fetchedAt: m.cycle,
				badFetch:  true,
				rasCkpt:   m.rasCur,
			}
			m.fetchStopped = true
			m.Stats.Fetched++
			return
		}
		fe := m.fqPush()
		*fe = fqEntry{pc: m.pc, in: in, readyAt: m.cycle + uint64(m.Cfg.FrontendDepth), fetchedAt: m.cycle}
		nextPC := m.pc + isa.InstBytes
		taken := false
		// The RAS index captures the state *after* this instruction's own
		// RAS effect, so recovery undoes younger wrong-path effects only.
		// Only calls and returns append an undo record; everything else
		// shares the previous index.
		fe.rasCkpt = m.rasCur
		switch {
		case in.Op.IsCondBranch():
			pred, st := m.tage.Predict(m.pc)
			m.tage.SpeculativeUpdate(pred)
			fe.hasDir = true
			fe.dir = st
			fe.predTaken = pred
			fe.predTarget = uint64(in.Imm)
			if pred {
				nextPC = fe.predTarget
				taken = true
			}
		case in.Op == isa.OpJal:
			fe.predTaken = true
			fe.predTarget = uint64(in.Imm)
			if in.IsCall() {
				fe.rasCkpt = m.rasCheckpoint(m.ras.PushUndo(m.pc + isa.InstBytes))
			}
			nextPC = fe.predTarget
			taken = true
		case in.Op == isa.OpJalr:
			fe.predTaken = true
			if in.IsReturn() {
				var u bpred.RASUndo
				fe.predTarget, u = m.ras.PopUndo()
				fe.rasCkpt = m.rasCheckpoint(u)
			} else {
				if tgt, hit := m.btb.Lookup(m.pc); hit {
					fe.predTarget = tgt
				} else {
					fe.predTarget = m.pc + isa.InstBytes // guaranteed redirect later
				}
				if in.IsCall() {
					fe.rasCkpt = m.rasCheckpoint(m.ras.PushUndo(m.pc + isa.InstBytes))
				}
			}
			nextPC = fe.predTarget
			taken = true
		}
		m.Stats.Fetched++
		m.pc = nextPC
		if in.Op == isa.OpHalt {
			m.fetchStopped = true
			return
		}
		if taken {
			return // taken control ends the fetch group
		}
	}
}

// fetchPenalty returns the extra stall cycles for fetching the line at pc
// (ITLB walk plus cache-miss cycles beyond the pipelined L1I hit latency).
func (m *Machine) fetchPenalty(pc uint64) int {
	stall := 0
	vpn := pc >> mem.PageBits
	pte, hit := m.ITLB.Lookup(vpn)
	if !hit {
		stall += m.ITLB.WalkLatency()
		_, pte2, err := m.AS.Translate(pc, mem.Exec)
		if err != nil {
			// Unmapped code: charge the walk; InstAt will produce the
			// fault marker.
			return stall
		}
		m.ITLB.Fill(vpn, pte2)
		pte = pte2
	}
	paddr := pte.PPN<<mem.PageBits | pc&(mem.PageSize-1)
	lat := m.Hier.FetchLatency(paddr)
	hitLat := 5
	if lat > hitLat {
		stall += lat - hitLat
	}
	return stall
}

// ---------------------------------------------------------------------------
// Rename / dispatch

type stallReason int

const (
	stallNone stallReason = iota
	stallResource
	stallSerialize
	stallPkruFull
)

func (m *Machine) renameStage() {
	if m.halted || m.fault != nil {
		return
	}
	renamed := 0
	wanted := false
	reason := stallNone
	for renamed < m.Cfg.Width && m.fqLen > 0 {
		fe := m.fqFront()
		if fe.readyAt > m.cycle {
			break
		}
		wanted = true
		// If this iteration breaks, fe is the instruction rename blocked on;
		// accountCycle attributes serialize/rob_pkru_full cycles to it.
		m.renameBlockPC = fe.pc
		in := fe.in
		// Structural resources.
		if m.alCnt == len(m.al) || m.iqCnt >= m.Cfg.IQSize {
			reason = stallResource
			break
		}
		if in.Op.IsLoad() && m.lqCnt >= m.Cfg.LQSize {
			reason = stallResource
			break
		}
		if in.Op.IsStore() && m.sqCnt >= m.Cfg.SQSize {
			reason = stallResource
			break
		}
		writes := in.WritesReg()
		if writes && len(m.freeList) == 0 {
			reason = stallResource
			break
		}
		// WRPKRU / RDPKRU serialization per microarchitecture.
		if r := m.policy.RenameGate(m, in); r != stallNone {
			reason = r
			break
		}

		// Allocate the active-list entry. (fe remains readable after the
		// pop: nothing pushes into the ring before the fetch stage, which
		// runs after rename within the cycle.)
		m.fqPop()
		m.progressed = true
		m.seq++
		slot := m.alTail
		e := &m.al[slot]
		*e = alEntry{
			seq:        m.seq,
			pc:         fe.pc,
			in:         in,
			alIdx:      int32(slot),
			fetchCyc:   fe.fetchedAt,
			renameCyc:  m.cycle,
			st:         stWaiting,
			newPhys:    noReg,
			physRs1:    noReg,
			physRs2:    noReg,
			pkruTag:    core.TagARF,
			pkruDst:    -1,
			predTaken:  fe.predTaken,
			predTarget: fe.predTarget,
			hasDir:     fe.hasDir,
			dir:        fe.dir,
			rasCkpt:    fe.rasCkpt,
		}
		m.alTail++
		if m.alTail == len(m.al) {
			m.alTail = 0
		}
		m.alCnt++
		if fe.badFetch {
			// Fetch-fault marker: deliver an exec fault at retirement.
			e.fault = &mem.Fault{Kind: mem.FaultPage, Addr: fe.pc, Access: mem.Exec}
			e.st = stDone
			e.done = m.cycle
		} else {
			m.iqCnt++
			m.iqBits.set(slot)
		}
		if in.ReadsRs1() {
			e.physRs1 = m.rmt[in.Rs1]
		}
		if in.ReadsRs2() {
			e.physRs2 = m.rmt[in.Rs2]
		}
		// Operand wakeup: link onto each not-yet-ready producer register's
		// consumer list; the producer's completion counts pending down.
		for k, p := range [2]int{e.physRs1, e.physRs2} {
			if p != noReg && !m.prfReady[p] {
				e.pending++
				e.wakeNext[k] = m.consHead[p]
				m.consHead[p] = consLink(slot, k)
			}
		}
		if e.pending == 0 {
			m.readyBits.set(slot)
		} else {
			m.readyBits.clear(slot)
		}
		// PKRU renaming / serialization bookkeeping.
		m.policy.DispatchWrpkru(m, e)
		if writes {
			p := m.freeList[len(m.freeList)-1]
			m.freeList = m.freeList[:len(m.freeList)-1]
			e.newPhys = p
			m.prfReady[p] = false
			m.rmt[in.Rd] = p
		}
		if in.Op.IsLoad() {
			e.isLoad = true
			e.memBytes = in.Op.MemBytes()
			m.lqCnt++
		}
		if in.Op.IsStore() {
			e.isStore = true
			e.memBytes = in.Op.MemBytes()
			m.sqCnt++
			m.unresolvedBits.set(slot) // address unknown until storeExecute
		}
		renamed++
		m.Stats.Renamed++
	}
	if wanted && renamed == 0 {
		m.renameWanted = true
		m.Stats.RenameStallCycles++
		m.renameBlock = reason
		switch reason {
		case stallSerialize:
			m.Stats.SerializeStallCycles++
		case stallPkruFull:
			m.Stats.PkruFullStallCycles++
		}
	}
}

// ---------------------------------------------------------------------------
// Issue + execute

func (m *Machine) issueStage() {
	if m.halted || m.fault != nil {
		return
	}
	if m.iqCnt == 0 {
		return
	}
	issued := 0
	n := len(m.al)
	// Walk the issuable entries whose operands are ready (iqBits &
	// readyBits) in age order. Operand readiness changes only in complete,
	// rename and squash, never during this walk, so the ready set is exact:
	// the walk visits, in the same order and with the same intermediate
	// state, exactly the entries a full-window poll would have found ready.
	for _, sp := range windowSpans(m.alHead, m.alCnt, n) {
		lo, hi := sp[0], sp[1]
		for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
			word := spanWord(m.iqBits[w]&m.readyBits[w], w, lo, hi)
			for word != 0 {
				phys := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e := &m.al[phys]
				if !m.ready(e, phys) {
					continue
				}
				m.progressed = true // execute always mutates (issue, defer, or squash)
				squashed := m.execute(e, ringOffset(phys, m.alHead, n))
				if e.st != stWaiting { // actually issued (not deferred to head)
					issued++
					m.Stats.IssuedN++
				} else {
					// Deferred to the AL head: drop it from the walk; the
					// retire stage replays it (markIssued re-clears the bit).
					m.iqBits.clear(phys)
				}
				if squashed {
					// A resolving store found a memory-order violation and
					// the window behind it is gone; the spans are stale.
					return
				}
				if issued >= m.Cfg.IssueWidth {
					return
				}
			}
		}
	}
}

// ready applies the issue conditions other than operand readiness (which
// readyBits already encodes) to the waiting entry in slot phys. They are
// evaluated at walk time because an entry issued earlier in the same walk
// can change them: an executed WRPKRU raises the highwater, and a store
// that resolves its address clears its unresolved bit.
func (m *Machine) ready(e *alEntry, phys int) bool {
	// All memory instructions and WRPKRU wait for every older WRPKRU to
	// have executed (SpecMPK design principle 2; enforced in real hardware
	// via the renamed PKRU source operand).
	if e.pkruDepSeq > m.wrpkruExecHighwater {
		return false
	}
	if e.isLoad {
		// Conservative disambiguation: all older store addresses known.
		// With memory-dependence speculation the load goes ahead anyway
		// (unless its PC has violated before) and a later-resolving store
		// squashes it on overlap.
		if m.Cfg.MemDepSpeculation && !m.violators[e.pc] {
			return true
		}
		// Any unresolved store in the older part of the window, [alHead,
		// phys) on the ring?
		if phys >= m.alHead {
			return !m.unresolvedBits.anyIn(m.alHead, phys)
		}
		return !m.unresolvedBits.anyIn(m.alHead, len(m.al)) && !m.unresolvedBits.anyIn(0, phys)
	}
	return true
}

func (m *Machine) srcVal(p int) uint64 {
	if p == noReg {
		return 0
	}
	return m.prf[p]
}

func opLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return 3
	case isa.OpDiv:
		return 12
	default:
		return 1
	}
}

// execute runs the instruction at AL offset idx. It reports whether a
// memory-order-violation squash occurred (which invalidates AL offsets).
func (m *Machine) execute(e *alEntry, idx int) bool {
	e.issueCyc = m.cycle
	rs1 := m.srcVal(e.physRs1)
	rs2 := m.srcVal(e.physRs2)
	lat := opLatency(e.in.Op)

	switch {
	case e.in.Op.IsALU():
		var val uint64
		switch e.in.Op {
		case isa.OpAdd:
			val = rs1 + rs2
		case isa.OpSub:
			val = rs1 - rs2
		case isa.OpAnd:
			val = rs1 & rs2
		case isa.OpOr:
			val = rs1 | rs2
		case isa.OpXor:
			val = rs1 ^ rs2
		case isa.OpShl:
			val = rs1 << (rs2 & 63)
		case isa.OpShr:
			val = rs1 >> (rs2 & 63)
		case isa.OpMul:
			val = rs1 * rs2
		case isa.OpDiv:
			if rs2 == 0 {
				val = ^uint64(0)
			} else {
				val = rs1 / rs2
			}
		case isa.OpAddi:
			val = rs1 + uint64(e.in.Imm)
		case isa.OpAndi:
			val = rs1 & uint64(e.in.Imm)
		case isa.OpOri:
			val = rs1 | uint64(e.in.Imm)
		case isa.OpXori:
			val = rs1 ^ uint64(e.in.Imm)
		case isa.OpShli:
			val = rs1 << (uint64(e.in.Imm) & 63)
		case isa.OpShri:
			val = rs1 >> (uint64(e.in.Imm) & 63)
		case isa.OpMovi:
			val = uint64(e.in.Imm)
		case isa.OpRdcycle:
			val = m.cycle
		}
		m.writeDest(e, val)
	case e.in.Op.IsCondBranch():
		e.actTaken = evalBranch(e.in.Op, rs1, rs2)
		e.actTarget = uint64(e.in.Imm)
	case e.in.Op == isa.OpJal:
		e.actTaken = true
		e.actTarget = uint64(e.in.Imm)
		m.writeDest(e, e.pc+isa.InstBytes)
	case e.in.Op == isa.OpJalr:
		e.actTaken = true
		e.actTarget = rs1 + uint64(e.in.Imm)
		m.writeDest(e, e.pc+isa.InstBytes)
	case e.isLoad:
		m.loadExecute(e, idx, rs1)
		return false
	case e.isStore:
		m.storeExecute(e, rs1, rs2)
		return m.checkMemOrder(idx)
	case e.in.Op == isa.OpWrpkru:
		e.storeData = uint64(uint32(rs1))
	case e.in.Op == isa.OpRdpkru:
		// Rename stalled until no WRPKRU was in flight, so ARF is current.
		m.writeDest(e, uint64(m.PKRUState.ARF()))
	case e.in.Op == isa.OpClflush:
		// CLFLUSH is weakly ordered; model it taking effect at execute.
		if paddr, _, err := m.AS.Translate(rs1+uint64(e.in.Imm), mem.Read); err == nil {
			m.Hier.Flush(paddr)
		}
	case e.in.Op == isa.OpNop || e.in.Op == isa.OpHalt:
		// Nothing to compute.
	}
	m.markIssued(e, m.cycle+uint64(lat))
	return false
}

// checkMemOrder runs after a store at AL offset idx resolves its address
// under memory-dependence speculation: any younger load that already
// executed against an overlapping address read stale data and must squash
// (together with everything after it). The violating PC joins the
// dependence predictor's blacklist so it waits conservatively next time.
func (m *Machine) checkMemOrder(idx int) bool {
	if !m.Cfg.MemDepSpeculation {
		return false
	}
	s := m.alAt(idx)
	for j := idx + 1; j < m.alCnt; j++ {
		l := m.alAt(j)
		if !l.isLoad || l.st == stWaiting || l.fault != nil {
			continue
		}
		if !overlaps(s.vaddr, s.memBytes, l.vaddr, l.memBytes) {
			continue
		}
		m.Stats.MemOrderViolations++
		m.violators[l.pc] = true
		pc := l.pc
		ras := l.rasCkpt
		m.squashAfter(j-1, "memorder")
		// Recover the front end to the load. (The global branch history
		// keeps the squashed suffix's bits — predictor state is heuristic,
		// not architectural.)
		m.rasRestore(ras)
		m.pc = pc
		m.fqClear()
		m.fetchStopped = false
		m.fetchStallTo = 0
		m.curICLine = 0
		return true
	}
	return false
}

func (m *Machine) writeDest(e *alEntry, val uint64) {
	if e.newPhys != noReg {
		m.prf[e.newPhys] = val
	}
}

func evalBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	}
	return false
}

func pkeyFault(vaddr uint64, acc mem.AccessKind, key int) *mem.Fault {
	return &mem.Fault{Kind: mem.FaultPkey, Addr: vaddr, Access: acc, PKey: key}
}

func (m *Machine) loadExecute(e *alEntry, idx int, rs1 uint64) {
	e.vaddr = rs1 + uint64(e.in.Imm)
	lat := 1 // address generation
	vpn := e.vaddr >> mem.PageBits

	pte, hit := m.DTLB.Lookup(vpn)
	if !hit {
		if m.policy.TLBUpdateTiming(m, e) == TLBDeferToRetire {
			// The pKey of an uncached page is unknown, so the access
			// conservatively stalls and re-executes at the AL head.
			e.stallTillHead = true
			e.tlbDeferred = true
			e.stallCyc = m.cycle
			m.Stats.LoadsStalledTillHead++
			m.emit(trace.Event{Kind: trace.KindTLBDefer, Seq: e.seq, PC: e.pc, Note: "load"})
			m.audit(AuditEvent{Kind: AuditTLBDefer, Pkey: PkeyUnknown, PC: e.pc, Seq: e.seq})
			m.audit(AuditEvent{Kind: AuditLoadStall, Pkey: PkeyUnknown, PC: e.pc, Seq: e.seq, Reason: "tlb_defer"})
			return
		}
		lat += m.DTLB.WalkLatency()
		paddr, pte2, err := m.AS.Translate(e.vaddr, mem.Read)
		if err != nil {
			m.finishFaulted(e, err.(*mem.Fault), lat)
			return
		}
		m.DTLB.Fill(vpn, pte2)
		pte = pte2
		e.paddr = paddr
	} else {
		if !pte.AllowsProt(mem.Read) {
			m.finishFaulted(e, &mem.Fault{Kind: mem.FaultProt, Addr: e.vaddr, Access: mem.Read}, lat)
			return
		}
		e.paddr = pte.PPN<<mem.PageBits | e.vaddr&(mem.PageSize-1)
	}
	e.pkey = int(pte.PKey)

	switch m.policy.LoadIssueGate(m, e, idx) {
	case GateStallTillHead:
		// PKRU Load Check failed: stall until non-squashable, leaving
		// no cache or TLB footprint.
		e.stallTillHead = true
		e.stallCyc = m.cycle
		m.Stats.LoadsStalledTillHead++
		m.audit(AuditEvent{Kind: AuditLoadStall, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Reason: "load_check"})
		return
	case GateFault:
		m.finishFaulted(e, pkeyFault(e.vaddr, mem.Read, e.pkey), lat)
		return
	}

	// Store-to-load forwarding against older in-flight stores (skipped
	// outright when the store queue is empty). Stores with unresolved
	// addresses can only be present under memory-dependence speculation; the
	// load optimistically assumes independence and the store checks for a
	// violation when it resolves.
	if m.sqCnt > 0 {
		for j := idx - 1; j >= 0; j-- {
			s := m.alAt(j)
			if !s.isStore || s.fault != nil || !s.addrReady {
				continue
			}
			if !overlaps(s.vaddr, s.memBytes, e.vaddr, e.memBytes) {
				continue
			}
			if !m.policy.AllowStoreForward(m, s) {
				// Forwarding suppressed; the load waits for the head
				// (by which time the store has committed to memory).
				e.stallTillHead = true
				e.stallCyc = m.cycle
				m.Stats.ForwardBlockedLoads++
				m.Stats.LoadsStalledTillHead++
				m.audit(AuditEvent{Kind: AuditLoadStall, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Reason: "forward_blocked"})
				return
			}
			if s.vaddr == e.vaddr && s.memBytes == e.memBytes {
				val := s.storeData
				if e.memBytes == 1 {
					val &= 0xff
				}
				m.writeDest(e, val)
				m.Stats.LoadsForwarded++
				m.markIssued(e, m.cycle+uint64(lat+1))
				m.loadHook(e, lat+1)
				return
			}
			// Partial overlap: conservative.
			e.stallTillHead = true
			e.stallCyc = m.cycle
			m.Stats.LoadsStalledTillHead++
			m.audit(AuditEvent{Kind: AuditLoadStall, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Reason: "partial_forward"})
			return
		}
	}

	lat += m.Hier.LoadLatency(e.paddr)
	m.writeDest(e, m.readMem(e.paddr, e.memBytes))
	m.markIssued(e, m.cycle+uint64(lat))
	m.loadHook(e, lat)
}

// loadLatBounds are the load-latency histogram's inclusive upper bounds.
// Powers of two, so the hot-path bucket index is a bit-length computation
// instead of a per-observation bounds scan.
var loadLatBounds = [...]float64{2, 4, 8, 16, 32, 64, 128, 256, 512}

// loadLatBucket maps a latency to its histogram bucket — the first bound
// >= lat, or the overflow bucket — exactly as stats.Histogram.Observe's
// ascending scan would.
func loadLatBucket(lat int) int {
	if lat <= 2 {
		return 0
	}
	b := bits.Len64(uint64(lat)-1) - 1
	if b > len(loadLatBounds) {
		b = len(loadLatBounds)
	}
	return b
}

func (m *Machine) loadHook(e *alEntry, lat int) {
	m.loadLatCounts[loadLatBucket(lat)]++
	m.loadLatSum += uint64(lat)
	m.loadLatN++
	if m.OnLoadLatency != nil {
		m.OnLoadLatency(e.vaddr, lat)
	}
}

// loadLatValue materializes the batched load-latency counters into the shape
// a stats.Histogram snapshot produces; the registry's snapshot/delta
// semantics apply unchanged (registered via Registry.HistogramFunc).
func (m *Machine) loadLatValue() stats.HistValue {
	return stats.HistValue{
		Bounds: append([]float64(nil), loadLatBounds[:]...),
		Counts: append([]uint64(nil), m.loadLatCounts[:]...),
		Sum:    float64(m.loadLatSum),
		Count:  m.loadLatN,
	}
}

func (m *Machine) readMem(paddr uint64, size int) uint64 {
	if size == 1 {
		return uint64(m.AS.Phys.Read8(paddr))
	}
	return m.AS.Phys.Read64(paddr)
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func (m *Machine) finishFaulted(e *alEntry, f *mem.Fault, lat int) {
	e.fault = f
	m.markIssued(e, m.cycle+uint64(lat))
}

func (m *Machine) storeExecute(e *alEntry, rs1, rs2 uint64) {
	e.vaddr = rs1 + uint64(e.in.Imm)
	e.storeData = rs2
	e.addrReady = true
	m.unresolvedBits.clear(int(e.alIdx)) // address now known (re-withheld below if suspect)
	lat := 1
	vpn := e.vaddr >> mem.PageBits

	pte, hit := m.DTLB.Lookup(vpn)
	if !hit {
		switch m.policy.TLBUpdateTiming(m, e) {
		case TLBWalkNow:
			lat += m.DTLB.WalkLatency()
			paddr, pte2, err := m.AS.Translate(e.vaddr, mem.Write)
			if err != nil {
				m.finishFaulted(e, err.(*mem.Fault), lat)
				return
			}
			m.DTLB.Fill(vpn, pte2)
			pte, hit = pte2, true
			e.paddr = paddr
		case TLBWalkSpeculative:
			// Ablation: walk speculatively, swallowing translation faults
			// (the store then defers to commit), then apply the checks.
			lat += m.DTLB.WalkLatency()
			if paddr, pte2, err := m.AS.Translate(e.vaddr, mem.Write); err == nil {
				m.DTLB.Fill(vpn, pte2)
				pte, hit = pte2, true
				e.paddr = paddr
			}
		case TLBDeferToRetire:
			// No speculative walk at all.
		}
	}

	if !hit {
		// Defer translation, permission check, and the TLB fill to
		// retirement; suppress forwarding meanwhile.
		e.tlbDeferred = true
		e.noForward = true
		e.stallCyc = m.cycle
		m.Stats.StoresNoForward++
		m.emit(trace.Event{Kind: trace.KindTLBDefer, Seq: e.seq, PC: e.pc, Note: "store"})
		m.emit(trace.Event{Kind: trace.KindNoForward, Seq: e.seq, PC: e.pc, Note: "tlb_miss"})
		m.audit(AuditEvent{Kind: AuditTLBDefer, Pkey: PkeyUnknown, PC: e.pc, Seq: e.seq, Store: true})
		m.audit(AuditEvent{Kind: AuditNoForward, Pkey: PkeyUnknown, PC: e.pc, Seq: e.seq, Store: true, Reason: "tlb_miss"})
	} else {
		e.pkey = int(pte.PKey)
		e.paddr = pte.PPN<<mem.PageBits | e.vaddr&(mem.PageSize-1)
		if !pte.AllowsProt(mem.Write) {
			e.fault = &mem.Fault{Kind: mem.FaultProt, Addr: e.vaddr, Access: mem.Write}
		} else {
			switch m.policy.StoreIssueGate(m, e) {
			case GateNoForward:
				// Store Check failed: no forwarding; precise permission
				// re-verification happens at retirement (commitStore).
				e.noForward = true
				e.stallCyc = m.cycle
				m.Stats.StoresNoForward++
				m.emit(trace.Event{Kind: trace.KindNoForward, Seq: e.seq, PC: e.pc, Note: "store_check"})
				m.audit(AuditEvent{Kind: AuditNoForward, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Store: true, Reason: "store_check"})
			case GateFault:
				e.fault = pkeyFault(e.vaddr, mem.Write, e.pkey)
			}
		}
	}
	if e.noForward && e.fault == nil && m.Cfg.StallSuspectStores {
		// Ablation: the suspect store withholds its address until it
		// is non-squashable (see Config.StallSuspectStores).
		e.addrReady = false
		m.unresolvedBits.set(int(e.alIdx))
		e.stallTillHead = true
		return
	}
	m.markIssued(e, m.cycle+uint64(lat))
}

// ---------------------------------------------------------------------------
// Completion (writeback + branch resolution)

func (m *Machine) completeStage() {
	if m.halted || m.fault != nil {
		return
	}
	if m.cycle < m.nextDone {
		return // nothing issued can complete yet
	}
	// Walk the issued entries oldest first — a resolving branch squashes
	// everything younger, so age order matters — recomputing the completion
	// horizon from the ones still pending.
	next := noDone
	n := len(m.al)
	for _, sp := range windowSpans(m.alHead, m.alCnt, n) {
		lo, hi := sp[0], sp[1]
		for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
			word := spanWord(m.issuedBits[w], w, lo, hi)
			for word != 0 {
				phys := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e := &m.al[phys]
				if e.done > m.cycle {
					if e.done < next {
						next = e.done
					}
					continue
				}
				m.progressed = true
				e.st = stDone
				m.issuedBits.clear(phys)
				if p := e.newPhys; p != noReg {
					// Faulting producers also wake dependents: the value is
					// garbage but never commits — either an older branch
					// squashes the region or the fault terminates at retire
					// before any dependent commits. Without the wakeup,
					// dependents of a wrong-path faulting load would wedge
					// the issue queue.
					m.prfReady[p] = true
					for l := m.consHead[p]; l != noLink; {
						c := &m.al[l>>1]
						nextLink := c.wakeNext[l&1]
						c.pending--
						if c.pending == 0 {
							m.readyBits.set(int(l >> 1))
						}
						l = nextLink
					}
					m.consHead[p] = noLink
				}
				switch {
				case e.in.Op == isa.OpWrpkru:
					// Open the audit ledger's transient-upgrade windows
					// against the still-committed ARF before the policy
					// delivers the value.
					m.auditUpgradeOpen(e)
					m.policy.WrpkruExecute(m, e)
				case e.in.Op.IsControl():
					if m.resolveControl(e, ringOffset(phys, m.alHead, n)) {
						// Squashed everything younger; stop walking.
						// squashAfter reset nextDone, forcing a full
						// recompute next cycle.
						return
					}
				}
			}
		}
	}
	m.nextDone = next
}

// resolveControl trains the predictors and recovers from a misprediction.
// Reports whether a squash happened.
func (m *Machine) resolveControl(e *alEntry, idx int) bool {
	if e.hasDir {
		m.tage.Update(e.pc, e.dir, e.actTaken)
	}
	if e.in.Op == isa.OpJalr && !e.in.IsReturn() {
		m.btb.Update(e.pc, e.actTarget)
	}
	mispredict := e.predTaken != e.actTaken ||
		(e.actTaken && e.predTarget != e.actTarget)
	if !mispredict {
		return false
	}
	m.Stats.Mispredicts++
	// Attribute indirect-target misses to the predicting structure.
	if e.in.Op == isa.OpJalr {
		if e.in.IsReturn() {
			m.ras.Mispredicts++
		} else {
			m.btb.Mispredicts++
		}
	}
	m.squashAfter(idx, "mispredict")
	// Recover front-end state and redirect.
	if e.hasDir {
		m.tage.Recover(e.dir, e.actTaken)
	}
	m.rasRestore(e.rasCkpt)
	if e.actTaken {
		m.pc = e.actTarget
	} else {
		m.pc = e.pc + isa.InstBytes
	}
	m.fqClear()
	m.fetchStopped = false
	m.fetchStallTo = 0
	m.curICLine = 0
	return true
}

// squashAfter removes every AL entry younger than offset idx (pass -1 to
// flush the whole window) and repairs the rename state. why names the cause
// for the event trace (mispredict, memorder, fault).
func (m *Machine) squashAfter(idx int, why string) {
	if n := m.alCnt - (idx + 1); n > 0 {
		m.emit(trace.Event{Kind: trace.KindSquash, N: uint64(n), Note: why})
	}
	// Refetched instructions need the redirect shadow (fetch plus the decode
	// pipe) before rename sees them again; empty-window cycles inside it are
	// squash-recovery bubbles, not frontend starvation.
	m.recoverUntil = m.cycle + uint64(m.Cfg.FrontendDepth) + 1
	for j := m.alCnt - 1; j > idx; j-- {
		e := m.alAt(j)
		slot := int(e.alIdx)
		switch e.st {
		case stWaiting:
			m.iqCnt--
			m.iqBits.clear(slot)
			// Unlink from the producers' consumer lists. Lists run
			// youngest first and this walk squashes youngest first, so the
			// entry heads every list it is still on (source 1 was linked
			// after source 0, so it comes off first).
			if e.pending > 0 {
				if p := e.physRs2; p != noReg && !m.prfReady[p] {
					m.consHead[p] = e.wakeNext[1]
				}
				if p := e.physRs1; p != noReg && !m.prfReady[p] {
					m.consHead[p] = e.wakeNext[0]
				}
			}
		case stIssued:
			m.issuedBits.clear(slot)
		}
		m.unresolvedBits.clear(slot)
		if e.newPhys != noReg {
			m.freeList = append(m.freeList, e.newPhys)
			m.prfReady[e.newPhys] = false
		}
		if e.pkruDst >= 0 {
			m.PKRUState.SquashYoungest()
		}
		m.auditUpgradeClose(e, false)
		if e.isLoad {
			m.lqCnt--
		}
		if e.isStore {
			m.sqCnt--
		}
		m.policy.OnSquashEntry(m, e)
		m.Stats.Squashed++
	}
	m.alCnt = idx + 1
	m.alTail = m.alHead + m.alCnt
	if m.alTail >= len(m.al) {
		m.alTail -= len(m.al)
	}
	// Squashes are rare: rather than tracking which issued entries died,
	// reset the completion horizon; the next complete walk recomputes it.
	m.nextDone = m.cycle
	m.progressed = true

	// Rebuild the RMT: committed mappings plus surviving allocations.
	m.rmt = m.amt
	youngestPkru := core.TagARF
	var youngestPkruSeq uint64
	for j := 0; j <= idx; j++ {
		e := m.alAt(j)
		if e.newPhys != noReg {
			m.rmt[e.in.Rd] = e.newPhys
		}
		if e.pkruDst >= 0 {
			youngestPkru = e.pkruDst
			youngestPkruSeq = e.seq
		}
	}
	m.policy.OnSquashRecover(m, youngestPkru, youngestPkruSeq)
}

// ---------------------------------------------------------------------------
// Retire

func (m *Machine) retireStage() {
	retired := 0
	for retired < m.Cfg.Width && m.alCnt > 0 && !m.halted && m.fault == nil {
		e := m.alAt(0)
		if e.stallTillHead && !e.reissued {
			m.progressed = true
			if e.isStore {
				m.reissueStoreAtHead(e)
			} else {
				m.reissueAtHead(e)
			}
			return
		}
		if e.st != stDone || e.done > m.cycle {
			return
		}
		m.progressed = true
		if e.fault != nil {
			m.deliverFault(e)
			return
		}
		// Commit.
		switch {
		case e.isStore:
			if !m.commitStore(e) {
				return // fault surfaced at retirement
			}
			m.sqCnt--
			m.Stats.Stores++
		case e.isLoad:
			m.lqCnt--
			m.Stats.Loads++
		case e.in.Op == isa.OpWrpkru:
			m.policy.OnRetireWrpkru(m, e)
			m.auditUpgradeClose(e, true)
			m.Stats.Wrpkru++
			m.emit(trace.Event{Kind: trace.KindWrpkruRetire, Seq: e.seq, PC: e.pc, N: e.storeData})
		case e.in.Op == isa.OpRdpkru:
			m.Stats.Rdpkru++
		case e.in.Op.IsCondBranch():
			m.Stats.Branches++
		case e.in.Op == isa.OpHalt:
			m.halted = true
		}
		if e.in.IsCall() {
			m.Stats.Calls++
		}
		if e.in.IsReturn() {
			m.Stats.Returns++
		}
		if e.newPhys != noReg {
			old := m.amt[e.in.Rd]
			m.amt[e.in.Rd] = e.newPhys
			m.freeList = append(m.freeList, old)
		}
		if m.OnRetire != nil {
			m.OnRetire(e.seq, e.pc, e.in)
		}
		if m.OnTrace != nil {
			m.OnTrace(TraceRecord{
				Seq: e.seq, PC: e.pc, Inst: e.in,
				Fetch: e.fetchCyc, Rename: e.renameCyc, Issue: e.issueCyc,
				Complete: e.done, Retire: m.cycle,
			})
		}
		m.alHead++
		if m.alHead == len(m.al) {
			m.alHead = 0
		}
		m.alCnt--
		retired++
		if m.retiredThisCycle == 0 {
			m.firstRetiredPC = e.pc
		}
		m.retiredThisCycle++
		m.Stats.Insts++
		if m.Prof != nil {
			m.Prof.Retired(e.pc)
		}
	}
}

// reissueAtHead re-executes a stalled load once it is non-squashable,
// performing the deferred TLB fill and the precise ARF_pkru check (§V-C4).
func (m *Machine) reissueAtHead(e *alEntry) {
	e.reissued = true
	e.stallTillHead = false
	e.issueCyc = m.cycle
	m.emit(trace.Event{Kind: trace.KindHeadReplay, Seq: e.seq, PC: e.pc, Note: "load"})
	lat := 1
	vpn := e.vaddr >> mem.PageBits
	paddr, pte, err := m.AS.Translate(e.vaddr, mem.Read)
	if err != nil {
		m.finishFaulted(e, err.(*mem.Fault), lat)
		return
	}
	if e.tlbDeferred {
		lat += m.DTLB.WalkLatency()
	}
	m.DTLB.Fill(vpn, pte) // deferred TLB update happens now
	e.paddr = paddr
	e.pkey = int(pte.PKey)
	if m.Audit != nil {
		d := m.cycle - e.stallCyc
		m.audit(AuditEvent{Kind: AuditLoadReplay, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Duration: d})
		if e.tlbDeferred {
			m.audit(AuditEvent{Kind: AuditTLBFill, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Duration: d})
		}
	}
	if !m.PKRUState.ARF().Allows(e.pkey, false) {
		m.finishFaulted(e, pkeyFault(e.vaddr, mem.Read, e.pkey), lat)
		return
	}
	lat += m.Hier.LoadLatency(paddr)
	m.writeDest(e, m.readMem(paddr, e.memBytes))
	m.markIssued(e, m.cycle+uint64(lat))
	m.loadHook(e, lat)
}

// reissueStoreAtHead resolves a suspect store that withheld its address
// (the StallSuspectStores ablation): translate, fill the TLB, verify
// against the committed PKRU, publish the address, and squash any younger
// load that speculated past it.
func (m *Machine) reissueStoreAtHead(e *alEntry) {
	e.reissued = true
	e.stallTillHead = false
	e.issueCyc = m.cycle
	// The withheld address resolves now — either published below or the
	// entry faults; both leave the disambiguation test nothing to find.
	m.unresolvedBits.clear(int(e.alIdx))
	m.emit(trace.Event{Kind: trace.KindHeadReplay, Seq: e.seq, PC: e.pc, Note: "store"})
	paddr, pte, err := m.AS.Translate(e.vaddr, mem.Write)
	if err != nil {
		m.finishFaulted(e, err.(*mem.Fault), 1)
		return
	}
	m.DTLB.Fill(e.vaddr>>mem.PageBits, pte)
	e.paddr = paddr
	e.pkey = int(pte.PKey)
	if !m.PKRUState.ARF().Allows(e.pkey, true) {
		m.finishFaulted(e, pkeyFault(e.vaddr, mem.Write, e.pkey), 1)
		return
	}
	e.addrReady = true
	m.markIssued(e, m.cycle+1)
	m.checkMemOrder(0)
}

// commitStore writes the store to memory at retirement. For stores whose
// policy suppressed forwarding (failed Store Check, or a deferred TLB miss),
// the precise permission verification against the committed PKRU happens
// here. Returns false if a fault surfaced.
func (m *Machine) commitStore(e *alEntry) bool {
	if e.noForward {
		paddr, pte, err := m.AS.Translate(e.vaddr, mem.Write)
		if err != nil {
			e.fault = err.(*mem.Fault)
			m.deliverFault(e)
			return false
		}
		m.DTLB.Fill(e.vaddr>>mem.PageBits, pte)
		e.paddr = paddr
		e.pkey = int(pte.PKey)
		if m.Audit != nil {
			d := m.cycle - e.stallCyc
			m.audit(AuditEvent{Kind: AuditNoForwardCommit, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Store: true, Duration: d})
			if e.tlbDeferred {
				m.audit(AuditEvent{Kind: AuditTLBFill, Pkey: e.pkey, PC: e.pc, Seq: e.seq, Store: true, Duration: d})
			}
		}
		if !m.PKRUState.ARF().Allows(e.pkey, true) {
			e.fault = pkeyFault(e.vaddr, mem.Write, e.pkey)
			m.deliverFault(e)
			return false
		}
	}
	m.Hier.StoreLatency(e.paddr)
	if e.memBytes == 1 {
		m.AS.Phys.Write8(e.paddr, byte(e.storeData))
	} else {
		m.AS.Phys.Write64(e.paddr, e.storeData)
	}
	return true
}

func (m *Machine) deliverFault(e *alEntry) {
	m.Stats.Faults++
	if e.fault.Kind == mem.FaultPkey {
		m.Stats.PkeyFaults++
	}
	if m.FaultHandler != nil {
		pkru := m.PKRUState.ARF()
		action := m.FaultHandler(e.fault, &pkru)
		m.PKRUState.SetARF(pkru)
		switch action {
		case FaultRetry:
			m.flushAndRedirect(e.pc)
			return
		case FaultSkip:
			m.Stats.Insts++
			m.flushAndRedirect(e.pc + isa.InstBytes)
			return
		}
	}
	m.fault = e.fault
}

// flushAndRedirect empties the pipeline (fault recovery) and restarts fetch.
func (m *Machine) flushAndRedirect(pc uint64) {
	m.squashAfter(-1, "fault")
	m.fqClear()
	m.pc = pc
	m.fetchStopped = false
	m.fetchStallTo = 0
	m.curICLine = 0
	m.serialWait = false
}
