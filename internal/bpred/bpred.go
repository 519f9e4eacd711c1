// Package bpred implements the front-end prediction structures of the
// Table III configuration: an LTAGE-style conditional direction predictor
// (bimodal base + tagged tables with geometrically increasing history
// lengths), a 4096-entry branch target buffer, and a 32-entry return
// address stack with checkpoint-based recovery.
package bpred

// ---------------------------------------------------------------------------
// TAGE direction predictor

const (
	numTagged  = 4
	baseBits   = 12 // 4096-entry bimodal base
	taggedBits = 10 // 1024 entries per tagged table
	tagBits    = 9
	maxHistLen = 64
)

var histLens = [numTagged]int{4, 12, 28, 64}

type taggedEntry struct {
	tag uint32
	ctr int8  // 3-bit signed counter: -4..3, taken when >= 0
	use uint8 // 2-bit useful counter
}

// TAGE is the direction predictor.
type TAGE struct {
	base   []int8 // 2-bit counters: -2..1, taken when >= 0
	tables [numTagged][]taggedEntry
	// ghist is the speculative global history (youngest bit at position 0).
	ghist uint64

	Lookups     uint64
	Mispredicts uint64
	// BaseProvides counts predictions served by the bimodal base table;
	// TableProvides[i] counts predictions served by tagged table i. They sum
	// to Lookups, attributing each prediction to the component that made it.
	BaseProvides  uint64
	TableProvides [numTagged]uint64
}

// NewTAGE returns a zeroed predictor.
func NewTAGE() *TAGE {
	t := &TAGE{base: make([]int8, 1<<baseBits)}
	for i := range t.tables {
		t.tables[i] = make([]taggedEntry, 1<<taggedBits)
	}
	return t
}

// DirState is the snapshot a branch carries for update and squash recovery.
type DirState struct {
	ghist    uint64
	provider int // -1 = base
	altPred  bool
	provPred bool
	provIdx  uint32
	provTag  uint32
	baseIdx  uint32
	Pred     bool
}

func fold(h uint64, bits, length int) uint32 {
	if length > maxHistLen {
		length = maxHistLen
	}
	mask := uint64(1)<<uint(length) - 1
	h &= mask
	var f uint32
	for length > 0 {
		f ^= uint32(h) & (1<<uint(bits) - 1)
		h >>= uint(bits)
		length -= bits
	}
	return f
}

func (t *TAGE) indexTag(pc uint64, table int) (uint32, uint32) {
	hl := histLens[table]
	idx := (uint32(pc>>2) ^ fold(t.ghist, taggedBits, hl) ^ uint32(table)*0x9e37) & (1<<taggedBits - 1)
	tag := (uint32(pc>>2) ^ fold(t.ghist, tagBits, hl) ^ uint32(table)*0x7f4b) & (1<<tagBits - 1)
	return idx, tag
}

// Predict returns the predicted direction for the conditional branch at pc
// along with the state needed to update or recover later.
func (t *TAGE) Predict(pc uint64) (bool, DirState) {
	t.Lookups++
	st := DirState{ghist: t.ghist, provider: -1}
	st.baseIdx = uint32(pc>>2) & (1<<baseBits - 1)
	basePred := t.base[st.baseIdx] >= 0
	st.altPred = basePred
	pred := basePred
	for i := numTagged - 1; i >= 0; i-- {
		idx, tag := t.indexTag(pc, i)
		e := t.tables[i][idx]
		if e.tag == tag {
			if st.provider == -1 {
				st.provider = i
				st.provIdx = idx
				st.provTag = tag
				st.provPred = e.ctr >= 0
				pred = st.provPred
			} else {
				// Second-longest match becomes the alternate prediction.
				st.altPred = e.ctr >= 0
				break
			}
		}
	}
	st.Pred = pred
	if st.provider >= 0 {
		t.TableProvides[st.provider]++
	} else {
		t.BaseProvides++
	}
	return pred, st
}

// SpeculativeUpdate shifts the predicted direction into the global history.
// Call immediately after Predict, at fetch time.
func (t *TAGE) SpeculativeUpdate(taken bool) {
	t.ghist <<= 1
	if taken {
		t.ghist |= 1
	}
}

// Recover restores the speculative history from a branch's snapshot and
// re-applies the branch's actual outcome. Call on a squash.
func (t *TAGE) Recover(st DirState, actual bool) {
	t.ghist = st.ghist<<1 | b2u(actual)
}

// Update trains the predictor with the branch's resolved outcome.
func (t *TAGE) Update(pc uint64, st DirState, taken bool) {
	if st.Pred != taken {
		t.Mispredicts++
	}
	// Train the provider (or the base table).
	if st.provider >= 0 {
		e := &t.tables[st.provider][st.provIdx]
		if e.tag == st.provTag {
			e.ctr = satInc(e.ctr, taken, -4, 3)
			if st.provPred != st.altPred {
				if st.provPred == taken && e.use < 3 {
					e.use++
				} else if st.provPred != taken && e.use > 0 {
					e.use--
				}
			}
		}
	} else {
		t.base[st.baseIdx] = satInc(t.base[st.baseIdx], taken, -2, 1)
	}
	// On a misprediction, try to allocate in a longer-history table.
	if st.Pred != taken && st.provider < numTagged-1 {
		t.allocate(pc, st, taken)
	}
}

func (t *TAGE) allocate(pc uint64, st DirState, taken bool) {
	// Temporarily restore the history the prediction was made with so the
	// allocated entry's index matches future lookups on the same path.
	saved := t.ghist
	t.ghist = st.ghist
	defer func() { t.ghist = saved }()

	for i := st.provider + 1; i < numTagged; i++ {
		idx, tag := t.indexTag(pc, i)
		e := &t.tables[i][idx]
		if e.use == 0 {
			*e = taggedEntry{tag: tag, ctr: ctrInit(taken)}
			return
		}
	}
	// No free entry: decay usefulness along the allocation path.
	for i := st.provider + 1; i < numTagged; i++ {
		idx, _ := t.indexTag(pc, i)
		if e := &t.tables[i][idx]; e.use > 0 {
			e.use--
		}
	}
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func satInc(c int8, up bool, lo, hi int8) int8 {
	if up {
		if c < hi {
			return c + 1
		}
		return c
	}
	if c > lo {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Branch target buffer

// BTB caches branch/jump targets, indexed and tagged by PC.
type BTB struct {
	entries []btbEntry
	mask    uint64

	Lookups uint64
	Hits    uint64
	// Mispredicts counts indirect-target mispredictions charged to the BTB
	// (resolved by the pipeline at branch resolution).
	Mispredicts uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// NewBTB builds a direct-mapped BTB with n entries (power of two).
func NewBTB(n int) *BTB {
	if n <= 0 || n&(n-1) != 0 {
		panic("bpred: BTB size must be a positive power of two")
	}
	return &BTB{entries: make([]btbEntry, n), mask: uint64(n - 1)}
}

// Lookup returns the predicted target for pc, if any.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	b.Lookups++
	e := b.entries[(pc>>2)&b.mask]
	if e.valid && e.tag == pc {
		b.Hits++
		return e.target, true
	}
	return 0, false
}

// Update installs or refreshes the target for pc.
func (b *BTB) Update(pc, target uint64) {
	b.entries[(pc>>2)&b.mask] = btbEntry{tag: pc, target: target, valid: true}
}

// ---------------------------------------------------------------------------
// Return address stack

// MaxRAS is the largest supported return-address stack.
const MaxRAS = 64

// RAS is a circular return-address stack. Because it is updated
// speculatively at fetch, a squash must rewind it exactly. Two mechanisms
// do: a full-copy Checkpoint/Restore, and an undo log (PushUndo, PopUndo,
// Rewind) that records per mutation the previous top and, for a push, the
// slot it overwrote. Wrong-path pop/push sequences can corrupt arbitrary
// slots below a saved top; undoing every record newer than the saved point,
// newest first, repairs them exactly, for 16 bytes per call or return
// instead of a 520-byte copy.
type RAS struct {
	stack [MaxRAS]uint64
	size  int
	top   int // index of the most recent push

	Pushes   uint64
	Pops     uint64
	Restores uint64
	// Mispredicts counts return-target mispredictions charged to the RAS
	// (resolved by the pipeline at branch resolution).
	Mispredicts uint64
}

// RASCheckpoint snapshots the stack for exact recovery.
type RASCheckpoint struct {
	Top   int
	Stack [MaxRAS]uint64
}

// NewRAS builds a stack with n entries (n <= MaxRAS).
func NewRAS(n int) *RAS {
	if n <= 0 || n > MaxRAS {
		panic("bpred: RAS size must be in 1..MaxRAS")
	}
	return &RAS{size: n, top: n - 1}
}

// Checkpoint captures the current state for later Restore.
func (r *RAS) Checkpoint() RASCheckpoint {
	return RASCheckpoint{Top: r.top, Stack: r.stack}
}

// Push records a return address (at a call).
func (r *RAS) Push(addr uint64) {
	r.Pushes++
	r.top = (r.top + 1) % r.size
	r.stack[r.top] = addr
}

// Pop predicts the target of a return.
func (r *RAS) Pop() uint64 {
	r.Pops++
	addr := r.stack[r.top]
	r.top--
	if r.top < 0 {
		r.top += r.size
	}
	return addr
}

// Restore rewinds to a checkpoint taken before the squashed region.
func (r *RAS) Restore(cp RASCheckpoint) {
	r.Restores++
	r.top = cp.Top
	r.stack = cp.Stack
}

// RASUndo reverses one Push or Pop.
type RASUndo struct {
	top  int32  // top of stack before the operation
	slot int32  // slot a push overwrote; -1 for a pop
	old  uint64 // that slot's previous value
}

// PushUndo is Push, returning the record that reverses it.
func (r *RAS) PushUndo(addr uint64) RASUndo {
	slot := (r.top + 1) % r.size
	u := RASUndo{top: int32(r.top), slot: int32(slot), old: r.stack[slot]}
	r.Push(addr)
	return u
}

// PopUndo is Pop, returning the record that reverses it.
func (r *RAS) PopUndo() (uint64, RASUndo) {
	u := RASUndo{top: int32(r.top), slot: -1}
	return r.Pop(), u
}

// Rewind undoes log[cur], log[cur-1], ... down to but excluding log[to],
// treating log as a ring, and counts one restore. The stack returns exactly
// to its state right after the mutation that logged log[to].
func (r *RAS) Rewind(log []RASUndo, cur, to int) {
	r.Restores++
	for i := cur; i != to; {
		u := &log[i]
		if u.slot >= 0 {
			r.stack[u.slot] = u.old
		}
		r.top = int(u.top)
		if i--; i < 0 {
			i = len(log) - 1
		}
	}
}
