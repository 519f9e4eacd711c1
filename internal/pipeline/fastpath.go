package pipeline

import "specmpk/internal/bpred"

// Idle fast-forward.
//
// A window stalled on a long-latency DRAM miss spends hundreds of cycles in
// which no stage can make progress: nothing completes (the earliest pending
// completion is in the future), nothing new can issue (wakeups only happen at
// completion), rename is blocked and fetch is stalled or full. The seed
// simulator walked every structure on every one of those cycles; stepFast
// instead detects a no-progress cycle, computes the next cycle at which
// anything can happen, and batch-accounts the identical stall cycles in
// between — cycle counters, rename-stall attribution and the CPI-stack bucket
// all advance exactly as the per-cycle walk would have, which the golden-stats
// harness pins bit-for-bit.
//
// The skip is provably safe because every state change inside Step is flagged
// (m.progressed): when a Step mutated nothing, the machine is a fixed point of
// Step except for the per-cycle counters, and it stays one until the earliest
// of (a) a pending completion (m.nextDone — wakes issue, retire and, through
// them, everything else), (b) fetch's stall expiring (m.fetchStallTo), (c) the
// head of the fetch queue leaving the decode pipe (readyAt), or (d) the
// squash-recovery shadow ending (which only changes the *attribution* of
// empty-window cycles, so it bounds the skip too). PKRUPolicy gate hooks are
// verdicts, not actions (see PKRUPolicy), so eliding their re-evaluation on
// skipped cycles is unobservable.
//
// One real Step always lands on the event cycle itself, so every actual state
// transition runs through the ordinary stage functions.

// stepFast advances at least one cycle, fast-forwarding across provably idle
// stretches. limit is the absolute cycle bound of the enclosing run; the
// machine never skips past it. A machine driven by external per-cycle
// observation (an attached ProfileSink receives one CycleAttributed call per
// cycle) disables the skip and degrades to plain Step.
func (m *Machine) stepFast(limit uint64) {
	m.Step()
	if m.progressed || m.Prof != nil || m.halted || m.fault != nil {
		return
	}
	if n := m.idleCycles(limit); n > 0 {
		m.skipIdle(n)
	}
}

// idleCycles returns how many cycles after the current one are guaranteed to
// repeat the cycle just simulated verbatim (0 = none). Call only after a Step
// that made no progress.
func (m *Machine) idleCycles(limit uint64) uint64 {
	next := m.nextDone // earliest pending completion (noDone when none)
	if !m.fetchStopped && m.fetchStallTo > m.cycle && m.fetchStallTo < next {
		// Fetch resumes at fetchStallTo. (If fetch is live and unstalled the
		// Step above fetched and we are not here; if the queue is full, fetch
		// stays blocked until rename drains it, which needs another event.)
		next = m.fetchStallTo
	}
	if m.fqLen > 0 {
		if r := m.fqFront().readyAt; r > m.cycle && r < next {
			// Rename may start once the head clears the decode pipe.
			next = r
		}
	}
	if m.alCnt == 0 && m.cycle <= m.recoverUntil && m.recoverUntil+1 < next {
		// Empty-window cycles flip from squash_recovery to frontend after
		// the redirect shadow; stop the batch at the boundary so the skipped
		// cycles share one attribution.
		next = m.recoverUntil + 1
	}
	if next == noDone || next <= m.cycle+1 {
		return 0
	}
	// Skip to just before the event (the next Step lands on it), capped at
	// the run budget.
	to := next - 1
	if to > limit {
		to = limit
	}
	if to <= m.cycle {
		return 0
	}
	return to - m.cycle
}

// skipIdle batch-accounts n cycles identical to the one just simulated. The
// increments mirror exactly what n repetitions of Step would have done: the
// cycle counters, the rename-stall counters renameStage charges when it wants
// to rename but cannot, and the CPI-stack bucket accountCycle chose. No trace,
// audit or load-latency observation fires on an idle cycle, so none is
// replayed here.
func (m *Machine) skipIdle(n uint64) {
	m.cycle += n
	m.Stats.Cycles += n
	if m.renameWanted {
		m.Stats.RenameStallCycles += n
		switch m.renameBlock {
		case stallSerialize:
			m.Stats.SerializeStallCycles += n
		case stallPkruFull:
			m.Stats.PkruFullStallCycles += n
		}
	}
	m.Stats.CPI.AddN(m.lastBucket, n)
}

// markIssued transitions a waiting entry to issued with completion cycle
// done, maintaining the issue-queue occupancy count, the issue and issued
// bitmaps, and the completion horizon. Every st → stIssued transition goes
// through here so those invariants cannot drift from the ring state.
func (m *Machine) markIssued(e *alEntry, done uint64) {
	slot := int(e.alIdx)
	if e.st == stWaiting {
		m.iqCnt--
		m.iqBits.clear(slot)
	}
	e.st = stIssued
	e.done = done
	m.issuedBits.set(slot)
	if done < m.nextDone {
		m.nextDone = done
	}
}

// slotBits is a bitmap over physical active-list slots (Machine.iqBits and
// its siblings). Clearing is idempotent: an entry deferred to the AL head
// clears its issue bit early and markIssued clears it again at the replay.
type slotBits []uint64

func (b slotBits) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b slotBits) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// anyIn reports whether any bit in slots [lo, hi) is set.
func (b slotBits) anyIn(lo, hi int) bool {
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		if spanWord(b[w], w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// spanWord masks bitmap word w down to the slots in [lo, hi).
func spanWord(word uint64, w, lo, hi int) uint64 {
	base := w << 6
	if base < lo {
		word &= ^uint64(0) << uint(lo-base)
	}
	if base+64 > hi {
		word &= 1<<uint(hi-base) - 1
	}
	return word
}

// windowSpans returns the window [head, head+cnt) of an n-slot ring as at
// most two physical slot ranges, oldest first; within a range ascending
// slot number is ascending age. Walking a bitmap's set bits span by span
// therefore visits entries in program order.
func windowSpans(head, cnt, n int) [2][2]int {
	end := head + cnt
	hi0 := min(end, n)
	return [2][2]int{{head, hi0}, {0, end - hi0}}
}

// ringOffset converts a physical slot into its window offset (0 = oldest).
func ringOffset(slot, head, n int) int {
	off := slot - head
	if off < 0 {
		off += n
	}
	return off
}

// noLink terminates a consumer list (Machine.consHead, alEntry.wakeNext).
const noLink = -1

// consLink encodes a consumer-list link: the consumer's active-list slot and
// which of its two source operands (k) the link belongs to.
func consLink(slot, k int) int32 { return int32(slot<<1 | k) }

// rasCheckpoint appends the undo record of a push or pop fetch just made and
// returns the new log index, which names the RAS state after that mutation.
// See Machine.rasLog for why the log cannot overwrite a live record.
func (m *Machine) rasCheckpoint(u bpred.RASUndo) int {
	m.rasCur++
	if m.rasCur == len(m.rasLog) {
		m.rasCur = 0
	}
	m.rasLog[m.rasCur] = u
	return m.rasCur
}

// rasRestore rewinds the RAS to log index idx — undoing every newer record,
// newest first — and makes idx current again. Every surviving in-flight
// instruction references an index at or before idx on the live path, so the
// write cursor rewinds with the squash: the invariant that bounds the log.
func (m *Machine) rasRestore(idx int) {
	m.ras.Rewind(m.rasLog, m.rasCur, idx)
	m.rasCur = idx
}
