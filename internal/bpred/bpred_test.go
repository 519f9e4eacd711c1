package bpred

import (
	"math/rand"
	"testing"
)

// train runs the predictor on a branch-outcome generator and returns the
// misprediction rate over the last `measure` outcomes.
func train(t *TAGE, gen func(i int) (pc uint64, taken bool), warm, measure int) float64 {
	mis := 0
	for i := 0; i < warm+measure; i++ {
		pc, taken := gen(i)
		pred, st := t.Predict(pc)
		t.SpeculativeUpdate(taken) // assume perfect same-cycle resolution
		if pred != taken {
			t.Recover(st, taken)
			if i >= warm {
				mis++
			}
		}
		t.Update(pc, st, taken)
	}
	return float64(mis) / float64(measure)
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := NewTAGE()
	rate := train(p, func(int) (uint64, bool) { return 0x1000, true }, 64, 1000)
	if rate > 0.01 {
		t.Fatalf("always-taken misprediction rate %.3f", rate)
	}
}

func TestAlternatingLearned(t *testing.T) {
	p := NewTAGE()
	rate := train(p, func(i int) (uint64, bool) { return 0x1000, i%2 == 0 }, 200, 2000)
	if rate > 0.05 {
		t.Fatalf("alternating pattern misprediction rate %.3f", rate)
	}
}

func TestLongPeriodicPatternLearned(t *testing.T) {
	// Period-7 pattern requires history, defeating a bimodal predictor.
	pat := []bool{true, true, false, true, false, false, true}
	p := NewTAGE()
	rate := train(p, func(i int) (uint64, bool) { return 0x2000, pat[i%len(pat)] }, 3000, 3000)
	if rate > 0.10 {
		t.Fatalf("period-7 pattern misprediction rate %.3f", rate)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	outcomes := make([]bool, 8192)
	for i := range outcomes {
		outcomes[i] = r.Intn(2) == 0
	}
	p := NewTAGE()
	rate := train(p, func(i int) (uint64, bool) { return 0x3000, outcomes[i%len(outcomes)] }, 1000, 4000)
	if rate < 0.25 {
		t.Fatalf("random branch rate %.3f suspiciously low", rate)
	}
}

func TestMultipleBranchesIndependent(t *testing.T) {
	p := NewTAGE()
	gen := func(i int) (uint64, bool) {
		if i%2 == 0 {
			return 0x1000, true
		}
		return 0x2040, false
	}
	rate := train(p, gen, 200, 2000)
	if rate > 0.02 {
		t.Fatalf("two-branch misprediction rate %.3f", rate)
	}
}

func TestMispredictCounter(t *testing.T) {
	p := NewTAGE()
	train(p, func(i int) (uint64, bool) { return 0x99, i%3 == 0 }, 0, 100)
	if p.Lookups != 100 {
		t.Fatalf("lookups = %d", p.Lookups)
	}
	if p.Mispredicts == 0 {
		t.Fatal("expected some mispredictions during warmup")
	}
}

func TestRecoverRestoresHistory(t *testing.T) {
	p := NewTAGE()
	p.SpeculativeUpdate(true)
	p.SpeculativeUpdate(false)
	_, st := p.Predict(0x10)
	before := p.ghist
	// Wrong-path history pollution.
	p.SpeculativeUpdate(true)
	p.SpeculativeUpdate(true)
	p.SpeculativeUpdate(false)
	p.Recover(st, true)
	if p.ghist != before<<1|1 {
		t.Fatalf("history after recover = %b, want %b", p.ghist, before<<1|1)
	}
}

func TestFold(t *testing.T) {
	if fold(0, 10, 64) != 0 {
		t.Fatal("fold of zero history must be zero")
	}
	// Folding must use only `length` bits.
	a := fold(0xFFFF, 8, 8)
	b := fold(0xF0FFFF, 8, 8)
	if a != b {
		t.Fatal("fold must mask history to length")
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(16)
	if _, ok := b.Lookup(0x40); ok {
		t.Fatal("cold BTB must miss")
	}
	b.Update(0x40, 0x999)
	tgt, ok := b.Lookup(0x40)
	if !ok || tgt != 0x999 {
		t.Fatalf("lookup = %x, %v", tgt, ok)
	}
	// Conflicting PC (same index, different tag) must miss, not alias.
	conflict := uint64(0x40 + 16*4)
	if _, ok := b.Lookup(conflict); ok {
		t.Fatal("tag mismatch must miss")
	}
	b.Update(conflict, 0x111)
	if _, ok := b.Lookup(0x40); ok {
		t.Fatal("evicted entry must miss")
	}
	if b.Lookups != 4 || b.Hits != 1 {
		t.Fatalf("stats lookups=%d hits=%d", b.Lookups, b.Hits)
	}
}

func TestBTBBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBTB(12)
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	r.Push(100)
	r.Push(200)
	if r.Pop() != 200 || r.Pop() != 100 {
		t.Fatal("LIFO order violated")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Pop() != 3 || r.Pop() != 2 {
		t.Fatal("wrap order")
	}
	// Underflow yields the stale overwritten slot — garbage but no panic.
	_ = r.Pop()
	_ = r.Pop()
}

func TestRASCheckpointRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(100)
	r.Push(200)
	cp := r.Checkpoint()
	// Wrong path: pop twice, push once.
	r.Pop()
	r.Pop()
	r.Push(999)
	r.Restore(cp)
	if got := r.Pop(); got != 200 {
		t.Fatalf("post-restore pop = %d, want 200", got)
	}
	if got := r.Pop(); got != 100 {
		t.Fatalf("post-restore pop = %d, want 100", got)
	}
}

func TestRASCheckpointProtectsAgainstClobber(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	cp := r.Checkpoint()
	// A wrong-path push clobbers the slot above top; Restore must repair it.
	r.Push(777)
	r.Restore(cp)
	r.Push(42) // reuses the repaired slot
	if r.Pop() != 42 || r.Pop() != 2 || r.Pop() != 1 {
		t.Fatal("clobbered slot not repaired")
	}
}

// TestRASUndoLogMatchesFullCopy drives random push/pop sequences through
// the undo log, with random rewinds (including ones across the log ring's
// wrap and across stack wraparound), and checks every rewound state against
// a full-copy checkpoint taken when its record was logged. Each rewind
// counts exactly one restore, like Restore.
func TestRASUndoLogMatchesFullCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRAS(8)
	log := make([]RASUndo, 24)
	ref := make([]RASCheckpoint, len(log))
	cur := 0
	ref[cur] = r.Checkpoint()
	live := []int{cur} // indices a squash may rewind to, oldest first
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(5); {
		case op < 2: // push
			cur = (cur + 1) % len(log)
			log[cur] = r.PushUndo(uint64(rng.Intn(1 << 20)))
		case op < 4: // pop
			before := r.Checkpoint()
			addr, u := r.PopUndo()
			if want := before.Stack[before.Top]; addr != want {
				t.Fatalf("step %d: PopUndo returned %d, Pop would return %d", step, addr, want)
			}
			cur = (cur + 1) % len(log)
			log[cur] = u
		default: // squash back to a random live index
			k := rng.Intn(len(live))
			restores := r.Restores
			r.Rewind(log, cur, live[k])
			cur = live[k]
			live = live[:k+1]
			if r.Restores != restores+1 {
				t.Fatalf("step %d: rewind counted %d restores, want 1", step, r.Restores-restores)
			}
			if r.Checkpoint() != ref[cur] {
				t.Fatalf("step %d: rewound state differs from the full copy", step)
			}
			continue
		}
		ref[cur] = r.Checkpoint()
		live = append(live, cur)
		if len(live) > len(log)-2 {
			live = live[1:] // the oldest instruction retires
		}
	}
}

func TestRASBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRAS(0)
}

// Property-style test: nested call/return sequences of random depth always
// predict correctly when no speculation is involved.
func TestRASNestedCalls(t *testing.T) {
	r := NewRAS(32)
	rng := rand.New(rand.NewSource(3))
	var model []uint64
	for i := 0; i < 10000; i++ {
		if len(model) < 30 && (len(model) == 0 || rng.Intn(2) == 0) {
			addr := rng.Uint64()
			model = append(model, addr)
			r.Push(addr)
		} else {
			want := model[len(model)-1]
			model = model[:len(model)-1]
			if got := r.Pop(); got != want {
				t.Fatalf("iteration %d: pop = %x, want %x", i, got, want)
			}
		}
	}
}
