package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"specmpk/internal/isa"
	"specmpk/internal/mpk"
)

// PKRUPolicy is the seam between the generic out-of-order core and a WRPKRU
// microarchitecture. The core loop in stages.go is mode-free: every point
// where the paper's designs differ — rename gating, PKRU renaming, TLB-miss
// timing, the load/store issue checks, store-to-load forwarding, WRPKRU
// execute/retire, and squash recovery — calls through one of these hooks.
//
// The three paper microarchitectures (serialized, nonsecure, specmpk) and
// any number of ablations or related designs (delayupgrade, noforward) are
// policy implementations registered with RegisterPolicy; a Config selects
// one through its Mode, which is now just a registry handle.
//
// Policies live in this package so they can reach pipeline internals
// (*Machine, *alEntry). A policy must not retain state of its own across
// machines: one instance is created per Machine by the registered factory,
// and per-run state belongs either on the policy instance or on the Machine.
type PKRUPolicy interface {
	// Name is the registry name ("serialized", "specmpk", ...); it is what
	// Mode.String returns and what ParseMode accepts.
	Name() string

	// RenamesPKRU reports whether the design renames the PKRU register.
	// When false, WRPKRU serializes at rename and ROB_pkru is unused
	// (Config validation then permits ROBPkruSize == 0).
	RenamesPKRU() bool

	// ROBPkruEntries sizes the PKRU rename storage for this design.
	ROBPkruEntries(cfg Config) int

	// RenameGate is consulted for each instruction before it renames,
	// after the structural-resource checks. A non-stallNone return blocks
	// rename for the cycle and is attributed to that CPI-stack bucket.
	//
	// RenameGate must be a pure verdict: it may read machine and policy
	// state but must not mutate either. The core relies on this — when a
	// cycle makes no progress, the idle fast-forward (fastpath.go) skips
	// ahead without re-evaluating the gate on the intervening cycles, which
	// is only sound if those evaluations would have been side-effect-free
	// repeats. (The other per-instruction hooks run at most once per entry
	// per issue attempt, so they may mutate; only RenameGate is re-polled
	// every stalled cycle.)
	RenameGate(m *Machine, in isa.Inst) stallReason

	// DispatchWrpkru runs at rename for every instruction, right after its
	// active-list entry is initialised. Renamed designs capture the PKRU
	// source tag / dependence seq for memory ops and allocate ROB_pkru
	// entries for WRPKRU here; the serialized design raises its drain flag.
	DispatchWrpkru(m *Machine, e *alEntry)

	// TLBUpdateTiming decides what a TLB-missing load or store does
	// (distinguish with e.isStore). The paper's SpecMPK defers the walk to
	// retirement (§V-C5); everything else walks at execute.
	TLBUpdateTiming(m *Machine, e *alEntry) TLBMissAction

	// LoadIssueGate runs once a load's translation (and thus pKey) is
	// known, before store-to-load forwarding. idx is the load's active-list
	// offset. GateProceed executes normally, GateStallTillHead defers the
	// load to the AL head (re-checked there against the committed PKRU),
	// GateFault raises a pkey fault.
	LoadIssueGate(m *Machine, e *alEntry, idx int) GateAction

	// StoreIssueGate runs once a store's translation is known and the RWX
	// protection check passed. GateProceed executes normally, GateNoForward
	// suppresses store-to-load forwarding and defers the precise permission
	// check to commit, GateFault raises a pkey fault.
	StoreIssueGate(m *Machine, e *alEntry) GateAction

	// AllowStoreForward reports whether a load may observe in-flight store
	// s (value forwarding or partial-overlap detection). A false return
	// stalls the load until the store has committed.
	AllowStoreForward(m *Machine, s *alEntry) bool

	// WrpkruExecute delivers an executed WRPKRU's value (complete stage).
	WrpkruExecute(m *Machine, e *alEntry)

	// OnRetireWrpkru commits a WRPKRU at retirement.
	OnRetireWrpkru(m *Machine, e *alEntry)

	// OnSquashEntry runs for each squashed active-list entry, youngest
	// first. (ROB_pkru entry reclamation itself is generic: any entry with
	// a pkruDst is unwound by the core loop.)
	OnSquashEntry(m *Machine, e *alEntry)

	// OnSquashRecover runs after a squash has rebuilt the rename state;
	// youngestTag/youngestSeq identify the youngest surviving WRPKRU
	// (core.TagARF / 0 when none survives).
	OnSquashRecover(m *Machine, youngestTag int, youngestSeq uint64)
}

// GateAction is a LoadIssueGate / StoreIssueGate verdict.
type GateAction int

// Gate verdicts. GateStallTillHead is only meaningful for loads and
// GateNoForward only for stores.
const (
	GateProceed GateAction = iota
	GateStallTillHead
	GateNoForward
	GateFault
)

// TLBMissAction is a TLBUpdateTiming verdict.
type TLBMissAction int

const (
	// TLBWalkNow performs the page walk at execute; a translation fault
	// surfaces on the instruction.
	TLBWalkNow TLBMissAction = iota
	// TLBWalkSpeculative walks at execute but swallows translation errors,
	// leaving the access untranslated (it then defers to commit). Used by
	// the NoTLBDeferral store ablation.
	TLBWalkSpeculative
	// TLBDeferToRetire performs no walk: the access stalls (load) or
	// suppresses forwarding (store) and translates once non-speculative.
	TLBDeferToRetire
)

// ---------------------------------------------------------------------------
// Registry

type policyEntry struct {
	name    string
	factory func() PKRUPolicy
}

type policyRegistry struct {
	mu     sync.RWMutex
	byMode map[Mode]policyEntry
	byName map[string]Mode
	next   Mode
}

// policies is seeded with the three paper microarchitectures at their
// historical Mode values; additional policies allocate Modes from 3 up.
// (Initialized via a function so dependency order guarantees the registry
// exists before any package-level RegisterPolicy call runs.)
var policies = newPolicyRegistry()

func newPolicyRegistry() *policyRegistry {
	r := &policyRegistry{
		byMode: make(map[Mode]policyEntry),
		byName: make(map[string]Mode),
		next:   ModeSpecMPK + 1,
	}
	r.add(ModeSerialized, "serialized", func() PKRUPolicy { return serializedPolicy{} })
	r.add(ModeNonSecure, "nonsecure", func() PKRUPolicy { return renamedPolicy{} })
	r.add(ModeSpecMPK, "specmpk", func() PKRUPolicy { return specMPKPolicy{} })
	return r
}

func (r *policyRegistry) add(mode Mode, name string, factory func() PKRUPolicy) {
	if name == "" || factory == nil {
		panic("pipeline: RegisterPolicy needs a name and a factory")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("pipeline: policy %q registered twice", name))
	}
	if _, dup := r.byMode[mode]; dup {
		panic(fmt.Sprintf("pipeline: mode %d registered twice", int(mode)))
	}
	r.byMode[mode] = policyEntry{name: name, factory: factory}
	r.byName[name] = mode
}

// RegisterPolicy registers a WRPKRU microarchitecture under name and returns
// the freshly allocated Mode that selects it. Built-in policies register at
// package init; tests and extensions may register more at any time before
// building machines that use them.
func RegisterPolicy(name string, factory func() PKRUPolicy) Mode {
	policies.mu.Lock()
	defer policies.mu.Unlock()
	mode := policies.next
	policies.next++
	policies.add(mode, name, factory)
	return mode
}

// newPolicy instantiates the policy a Mode resolves to.
func newPolicy(mode Mode) (PKRUPolicy, error) {
	policies.mu.RLock()
	e, ok := policies.byMode[mode]
	policies.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline: mode %d has no registered policy (valid: %s)",
			int(mode), strings.Join(PolicyNames(), ", "))
	}
	return e.factory(), nil
}

// ParseMode resolves a registered policy name ("serialized", "specmpk",
// "delayupgrade", ...) to its Mode. The error on unknown input lists every
// valid name. ParseMode and Mode.String round-trip for registered modes.
func ParseMode(name string) (Mode, error) {
	policies.mu.RLock()
	mode, ok := policies.byName[name]
	policies.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("pipeline: unknown mode %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return mode, nil
}

// RegisteredModes returns every registered Mode in registration order (the
// three paper microarchitectures first).
func RegisteredModes() []Mode {
	policies.mu.RLock()
	defer policies.mu.RUnlock()
	out := make([]Mode, 0, len(policies.byMode))
	for m := range policies.byMode {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PolicyNames returns every registered policy name in registration order.
func PolicyNames() []string {
	modes := RegisteredModes()
	policies.mu.RLock()
	defer policies.mu.RUnlock()
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = policies.byMode[m].name
	}
	return out
}

func (m Mode) String() string {
	policies.mu.RLock()
	e, ok := policies.byMode[m]
	policies.mu.RUnlock()
	if ok {
		return e.name
	}
	return fmt.Sprintf("mode%d", int(m))
}

// ---------------------------------------------------------------------------
// Shared helpers

// specPKRU returns the PKRU value a renamed design's memory instruction at
// AL offset idx observes: the youngest older in-flight WRPKRU's value
// (guaranteed executed by the issue dependence), or the committed ARF.
//
// The walk only runs while a WRPKRU is actually in flight (RMT_pkru valid) —
// otherwise it cannot find one and the answer is the ARF. This assumes the
// calling design renames its WRPKRUs through PKRUState, which every in-tree
// renamed policy does.
func (m *Machine) specPKRU(idx int) mpk.PKRU {
	if !m.PKRUState.RMTValid() {
		return m.PKRUState.ARF()
	}
	for j := idx - 1; j >= 0; j-- {
		s := m.alAt(j)
		if s.in.Op == isa.OpWrpkru {
			return mpk.PKRU(s.storeData)
		}
	}
	return m.PKRUState.ARF()
}

// specPKRUForEntry delegates to specPKRU at e's AL offset.
func (m *Machine) specPKRUForEntry(e *alEntry) mpk.PKRU {
	return m.specPKRU(ringOffset(int(e.alIdx), m.alHead, len(m.al)))
}
