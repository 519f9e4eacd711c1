// Package pipeline implements the cycle-level out-of-order core the paper
// evaluates on: a MIPS-R10K-style superscalar with a physical register file,
// rename/architectural map tables, an active list, conservative memory
// disambiguation with store-to-load forwarding, a TAGE+BTB+RAS front end,
// split TLBs and a four-level cache hierarchy — configured per Table III.
//
// The WRPKRU microarchitecture is pluggable: every point where designs
// differ is a PKRUPolicy hook (see policy.go), and a Config's Mode selects a
// registered policy. Five ship in-tree (paper §VII plus two extensions):
//
//   - ModeSerialized: WRPKRU drains the pipeline at rename and blocks rename
//     until it retires (models current hardware).
//   - ModeNonSecure: PKRU is renamed; WRPKRU executes speculatively with no
//     side-channel protection ("NonSecure SpecMPK").
//   - ModeSpecMPK: the paper's design — NonSecure plus the PKRU Load/Store
//     checks backed by the Disabling Counters, stall-until-retirement for
//     suspect loads, store-to-load-forwarding suppression, and deferred TLB
//     updates.
//   - ModeDelayUpgrade: Okapi-style — loads under a transient PKRU upgrade
//     delay until non-speculative; stores keep forwarding.
//   - ModeNoForward: SpecMPK's store-forwarding restriction alone.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"specmpk/internal/asm"
	"specmpk/internal/bpred"
	"specmpk/internal/cache"
	"specmpk/internal/core"
	"specmpk/internal/isa"
	"specmpk/internal/mem"
	"specmpk/internal/mpk"
	"specmpk/internal/stats"
	"specmpk/internal/tlb"
	"specmpk/internal/trace"
)

// Mode selects the WRPKRU microarchitecture. It is a registry handle: each
// value resolves to a registered PKRUPolicy (see policy.go), so new designs
// plug in via RegisterPolicy without the core loop learning about them.
// ParseMode maps policy names to Modes; Mode.String maps back.
type Mode int

// The three microarchitectures the paper evaluates (pre-registered).
// Additional registered designs: ModeDelayUpgrade, ModeNoForward.
const (
	ModeSerialized Mode = iota
	ModeNonSecure
	ModeSpecMPK
)

// Config is the machine configuration (Table III defaults via DefaultConfig).
type Config struct {
	Mode Mode

	// Width applies to fetch, rename and retire (the paper's machine is
	// 8-wide issue/decode/commit).
	Width      int
	IssueWidth int

	ALSize  int // active list (ROB) entries
	IQSize  int // issue queue entries
	LQSize  int // load queue entries
	SQSize  int // store queue entries
	PRFSize int // physical registers

	ROBPkruSize int // ROB_pkru entries (SpecMPK / NonSecure)

	BTBEntries int
	RASEntries int

	// FrontendDepth is the fetch-to-rename latency in cycles (decode
	// stages); it sets the minimum branch misprediction penalty.
	FrontendDepth int

	// MemDepSpeculation lets loads issue before all older store addresses
	// are known (optimistic memory disambiguation). A store whose address
	// resolves against an already-executed younger load squashes from that
	// load and refetches — the memory-dependence-violation squash the
	// paper's §V-C2 discussion references. Violating load PCs enter a
	// small dependence-predictor blacklist and wait conservatively
	// afterwards (store-set-lite). Off by default: the Table III baseline
	// uses conservative disambiguation.
	MemDepSpeculation bool

	// StallSuspectStores is an ABLATION knob for the SpecMPK mode: stores
	// that fail the PKRU Store Check defer even their *address generation*
	// to retirement instead of executing with forwarding suppressed. The
	// paper's design deliberately lets such stores execute (§V-C2: "this
	// approach also facilitates address generation, enabling younger load
	// instructions to learn the physical address of older store
	// instructions and thereby reducing squash resulting from memory
	// dependence speculation"); this knob quantifies that choice when
	// combined with MemDepSpeculation.
	StallSuspectStores bool

	// MaxCycles is the machine's own cycle budget: Run, RunContext and
	// RunInsts never step past it regardless of the budget they are called
	// with (0 = no config-level budget). A run that exhausts it returns
	// ErrCycleLimit with Stats.Stop = StopCycleLimit, so a pathological
	// program (or an over-long job on the simulation server) terminates with
	// a distinct stop reason instead of looping forever.
	MaxCycles uint64

	// NoTLBDeferral is an ABLATION knob for the SpecMPK mode: it disables
	// the §V-C5 rule that conservatively stalls TLB-missing accesses until
	// retirement, letting them page-walk speculatively instead (the PKRU
	// checks still apply once the pKey is known). This trades away the
	// TLB side-channel protection to measure what the conservatism costs.
	NoTLBDeferral bool

	Caches cache.HierarchyConfig
	DTLB   tlb.Config
	ITLB   tlb.Config
}

// DefaultConfig returns the Table III configuration: 8-wide, AL/LQ/SQ/IQ/PRF
// = 352/128/72/160/280, ROB_pkru = 8, 4096-entry BTB, 32-entry RAS, LTAGE
// direction prediction, and the Table III cache hierarchy.
func DefaultConfig() Config {
	return Config{
		Mode:          ModeSpecMPK,
		Width:         8,
		IssueWidth:    8,
		ALSize:        352,
		IQSize:        160,
		LQSize:        128,
		SQSize:        72,
		PRFSize:       280,
		ROBPkruSize:   8,
		BTBEntries:    4096,
		RASEntries:    32,
		FrontendDepth: 3,
		Caches:        cache.DefaultHierarchyConfig(),
		DTLB:          tlb.DefaultDataConfig(),
		ITLB:          tlb.DefaultInstConfig(),
	}
}

func (c Config) validate(pol PKRUPolicy) error {
	if c.Width <= 0 || c.IssueWidth <= 0 {
		return fmt.Errorf("pipeline: widths must be positive")
	}
	if c.ALSize <= 0 || c.PRFSize < isa.NumRegs+c.Width {
		return fmt.Errorf("pipeline: AL/PRF too small")
	}
	if pol.RenamesPKRU() && c.ROBPkruSize <= 0 {
		return fmt.Errorf("pipeline: ROB_pkru size must be positive")
	}
	return nil
}

// StopReason records why a run returned (Stats.Stop). It is a plain string
// so it serializes readably in stats JSON and server job results.
type StopReason string

// The stop reasons Run/RunContext/RunInsts report.
const (
	// StopNone: the machine has not finished a run yet.
	StopNone StopReason = ""
	// StopHalt: the program retired its HALT.
	StopHalt StopReason = "halt"
	// StopFault: a fault terminated the program at retirement.
	StopFault StopReason = "fault"
	// StopCycleLimit: the cycle budget (Run's argument or Config.MaxCycles)
	// expired first.
	StopCycleLimit StopReason = "cycle_limit"
	// StopInstLimit: RunInsts retired its target instruction count.
	StopInstLimit StopReason = "inst_limit"
	// StopCancelled: RunContext's context was cancelled mid-run.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: RunContext's context expired (context.DeadlineExceeded)
	// mid-run — the wall-clock budget, not the cycle budget, ended the run.
	// Unlike StopCycleLimit the partial statistics are host-dependent (how
	// far the run got depends on machine speed), so servers must not cache
	// deadline-stopped results.
	StopDeadline StopReason = "deadline"
)

// Stats are the counters a run accumulates.
type Stats struct {
	Cycles uint64
	Insts  uint64 // retired instructions

	// Stop is why the last Run/RunContext/RunInsts call returned.
	Stop StopReason `json:"stopReason,omitempty"`

	Fetched  uint64
	Renamed  uint64
	IssuedN  uint64
	Squashed uint64

	Branches    uint64
	Mispredicts uint64
	Calls       uint64
	Returns     uint64

	Loads  uint64 // retired
	Stores uint64 // retired
	Wrpkru uint64 // retired
	Rdpkru uint64 // retired

	// RenameStallCycles counts cycles in which the rename stage wanted to
	// rename at least one instruction but renamed none.
	RenameStallCycles uint64
	// SerializeStallCycles is the subset of rename stalls attributable to
	// WRPKRU/RDPKRU serialization (Fig. 3's second series).
	SerializeStallCycles uint64
	// PkruFullStallCycles is the subset caused by a full ROB_pkru (Fig. 11).
	PkruFullStallCycles uint64

	LoadsStalledTillHead uint64 // PKRU Load Check failures + TLB-miss defers
	StoresNoForward      uint64 // PKRU Store Check failures
	LoadsForwarded       uint64
	ForwardBlockedLoads  uint64 // loads that hit a no-forward store
	MemOrderViolations   uint64 // memdep-speculation squashes

	PkeyFaults uint64
	Faults     uint64

	// CPI attributes every cycle to exactly one stack bucket, so
	// CPI.Sum() == Cycles always holds (the accounting runs once per Step).
	CPI CPIStack
}

// CPIStack is the per-cycle attribution the CPI-stack accounting pass
// maintains: each simulated cycle lands in exactly one bucket, so the
// Serialized-vs-SpecMPK gap decomposes into causes instead of being a single
// opaque IPC delta.
type CPIStack struct {
	// Base: cycles that retired at least one instruction, plus stalls on
	// non-memory execution latency (the useful-work baseline).
	Base uint64 `json:"base"`
	// Frontend: the window is empty and fetch/decode has not delivered.
	Frontend uint64 `json:"frontend"`
	// Serialize: rename blocked by WRPKRU/RDPKRU serialization (the
	// serialized machine's drain, or RDPKRU waiting out in-flight WRPKRUs).
	Serialize uint64 `json:"serialize"`
	// PkruFull: rename blocked because ROB_pkru is full (Fig. 11's limiter).
	PkruFull uint64 `json:"rob_pkru_full"`
	// Memory: the oldest instruction is a load/store still waiting on the
	// memory system (including SpecMPK stall-till-head replays).
	Memory uint64 `json:"memory"`
	// SquashRecovery: post-squash refill bubbles (empty window inside the
	// redirect shadow).
	SquashRecovery uint64 `json:"squash_recovery"`
}

// Sum returns the total attributed cycles; it equals Stats.Cycles.
func (c CPIStack) Sum() uint64 {
	return c.Base + c.Frontend + c.Serialize + c.PkruFull + c.Memory + c.SquashRecovery
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per retired branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// WrpkruPerKilo returns retired WRPKRU per 1000 retired instructions.
func (s Stats) WrpkruPerKilo() float64 {
	if s.Insts == 0 {
		return 0
	}
	return 1000 * float64(s.Wrpkru) / float64(s.Insts)
}

// state of an active-list entry.
type alState uint8

const (
	stWaiting alState = iota
	stIssued
	stDone
)

const noReg = -1

// TraceRecord carries one retired instruction's per-stage timestamps.
type TraceRecord struct {
	Seq                                    uint64
	PC                                     uint64
	Inst                                   isa.Inst
	Fetch, Rename, Issue, Complete, Retire uint64
}

// alEntry is one in-flight instruction.
type alEntry struct {
	seq uint64
	pc  uint64
	in  isa.Inst
	st  alState
	// alIdx is the entry's own active-list slot (set once at rename), so
	// code holding only the entry pointer can maintain the issue bitmap.
	alIdx int32
	done  uint64 // cycle the result becomes visible

	fetchCyc  uint64
	renameCyc uint64
	issueCyc  uint64

	// Renaming.
	newPhys int // physical destination or noReg
	physRs1 int
	physRs2 int
	// Operand wakeup: pending counts source operands not yet ready, and
	// wakeNext[k] links source k onto its producer register's consumer list
	// (Machine.consHead); see consLink for the encoding.
	pending  int8
	wakeNext [2]int32

	// Control flow. rasCkpt indexes the machine's RAS undo log (rasLog):
	// the RAS state right after this instruction's own push or pop.
	// Consecutive instructions share an index unless one of them pushed or
	// popped, so the log costs one 16-byte record per call/return.
	predTaken  bool
	predTarget uint64
	hasDir     bool
	dir        bpred.DirState
	rasCkpt    int
	actTaken   bool
	actTarget  uint64

	// PKRU.
	pkruTag int // renamed PKRU source (core.TagARF or ROB_pkru index)
	pkruDst int // ROB_pkru entry written by this WRPKRU, else -1
	// pkruDepSeq is the sequence number of the youngest older WRPKRU this
	// instruction must wait for (0 = none in flight at rename). Sequence
	// numbers are used instead of ROB_pkru tags for the wakeup condition
	// because a tag's slot can be recycled after retirement — the staleness
	// hazard the paper's dedicated-register-file design addresses (§V-B1).
	pkruDepSeq uint64

	// Memory.
	isLoad, isStore bool
	addrReady       bool
	vaddr           uint64
	paddr           uint64
	memBytes        int
	pkey            int
	storeData       uint64
	noForward       bool // SpecMPK: store-to-load forwarding suppressed
	stallTillHead   bool // execute only at AL head
	reissued        bool
	tlbDeferred     bool // SpecMPK: TLB fill deferred to retirement

	fault *mem.Fault // delivered at retirement

	// Audit bookkeeping (only written when Machine.Audit is attached).
	stallCyc uint64 // cycle a stall/no-forward/defer window opened
	upgCyc   uint64 // cycle this WRPKRU's transient-upgrade window opened
	upgMask  uint16 // pkeys this WRPKRU transiently upgrades vs the ARF
}

// FaultAction mirrors funcsim's fault-handler verdicts.
type FaultAction int

// Fault-handler verdicts.
const (
	FaultStop FaultAction = iota
	FaultRetry
	FaultSkip
)

// Machine is one out-of-order core bound to a loaded program.
type Machine struct {
	Cfg  Config
	Prog *asm.Program
	AS   *mem.AddressSpace

	// policy is the WRPKRU microarchitecture Cfg.Mode resolved to; every
	// mode-specific decision in the stage functions goes through it.
	policy PKRUPolicy

	Stats Stats

	// Hier, DTLB, ITLB expose the memory system for inspection
	// (the attack harness probes cache residency through timed loads, and
	// tests probe directly).
	Hier *cache.Hierarchy
	DTLB *tlb.TLB
	ITLB *tlb.TLB

	// PKRUState is the SpecMPK hardware (also used, without its checks, by
	// the NonSecure mode; the serialized mode only uses its ARF).
	PKRUState *core.State

	// OnLoadLatency observes every executed load (including transient
	// ones) with its observed latency — the measurement hook the
	// flush+reload harness uses (Fig. 13).
	OnLoadLatency func(vaddr uint64, lat int)
	// OnRetire observes every retired (architecturally committed)
	// instruction in program order — tracing and debugging.
	OnRetire func(seq uint64, pc uint64, in isa.Inst)
	// OnTrace, when set, receives per-instruction stage timestamps at
	// retirement (the pipeline-visualization hook; see cmd/specmpk-sim
	// -pipeview).
	OnTrace func(TraceRecord)
	// FaultHandler is consulted when a fault reaches retirement.
	FaultHandler func(f *mem.Fault, pkru *mpk.PKRU) FaultAction

	// Events, when non-nil, receives structured microarchitectural events
	// (squashes, WRPKRU retirements, head replays, forwarding suppression,
	// TLB deferrals) into a bounded ring buffer for JSONL export
	// (cmd/specmpk-sim -trace-out). Nil disables the layer entirely.
	Events *trace.Ring

	// Prof, when non-nil, receives the per-PC profiler feed: every cycle's
	// CPI-stack attribution together with the program location responsible,
	// and every retired PC (see ProfileSink; internal/profile implements
	// it). Nil disables the layer entirely.
	Prof ProfileSink

	// Audit, when non-nil, receives pkey security audit events — transient
	// PKRU-upgrade windows opening and closing, loads stalled to the window
	// head, forwarding suppression, deferred TLB fills — with simulated-time
	// durations (see AuditSink; internal/profile's Ledger implements it).
	// Nil disables the layer entirely.
	Audit AuditSink

	// Front end.
	tage *bpred.TAGE
	btb  *bpred.BTB
	ras  *bpred.RAS

	// RAS undo log: the RAS only changes on calls and returns, so fetch
	// appends one undo record per push or pop (rasCheckpoint) and in-flight
	// instructions carry log indices. A squash undoes the records newer than
	// the surviving instruction's index, newest first, and rewinds the cursor
	// with them (rasRestore). That rewind is what bounds the log: between the
	// oldest live index and rasCur there is at most one record per in-flight
	// call/return, so a log sized AL + fetch queue + 2 never overwrites a
	// record a squash still needs.
	rasLog []bpred.RASUndo
	rasCur int

	pc           uint64
	fetchStopped bool // saw HALT (or unrecoverable fetch fault)
	fetchStallTo uint64

	// Fetch/decode queue: a fixed ring sized at New (fetch width times the
	// decode depth plus one), so the steady-state fetch path never allocates.
	fq     []fqEntry
	fqHead int
	fqLen  int

	// Rename structures.
	rmt      [isa.NumRegs]int
	amt      [isa.NumRegs]int
	prf      []uint64
	prfReady []bool
	freeList []int

	// Active list (circular).
	al     []alEntry
	alHead int
	alTail int
	alCnt  int

	lqCnt, sqCnt int
	// iqCnt counts active-list entries still waiting to issue (st ==
	// stWaiting), maintained incrementally so the rename stage's issue-queue
	// occupancy check is O(1) instead of a per-cycle window walk.
	iqCnt int

	// Event-driven scheduler state (see DESIGN.md §12). Every bitmap has one
	// bit per physical active-list slot; the stages walk them in age order.
	//
	// iqBits: the entry is waiting and issuable (not deferred to the AL
	// head). A bit clears when its entry issues, squashes, or defers
	// (deferred entries rejoin via the retire stage, never the issue walk).
	iqBits slotBits
	// readyBits: the waiting entry's source operands are all ready. Set at
	// rename or by the producer's completion (the wakeup); the issue walk
	// visits iqBits & readyBits. Stale for slots that are not waiting.
	readyBits slotBits
	// issuedBits: the entry is in stIssued (executed, completion pending);
	// the completion walk visits exactly these.
	issuedBits slotBits
	// unresolvedBits: an in-flight store whose address is still unknown
	// (addrReady false, no fault). A load's conservative disambiguation is an
	// any-bit test over the older part of the window.
	unresolvedBits slotBits
	// consHead heads each physical register's list of waiting consumers,
	// threaded through alEntry.wakeNext (noLink = empty). A list is ordered
	// youngest first, because rename prepends in program order.
	consHead []int32
	// nextDone is a lower bound on the earliest completion cycle of any
	// stIssued entry (noDone when none): the complete stage returns
	// immediately on cycles before it, and the idle fast-forward uses it as
	// the next-event horizon. Squashes reset it to the current cycle (forcing
	// one recomputing walk) rather than tracking the removed entries.
	nextDone uint64

	seq        uint64
	cycle      uint64
	halted     bool
	fault      *mem.Fault
	curICLine  uint64 // last fetched I-cache line+1 (0 = none)
	serialWait bool   // serialized mode: WRPKRU in flight blocks rename

	// lastRenamedWrpkruSeq is the seq of the youngest renamed-and-surviving
	// WRPKRU; consumers capture it as their pkruDepSeq.
	lastRenamedWrpkruSeq uint64
	// violators is the dependence predictor's blacklist: load PCs that
	// caused a memory-order violation wait conservatively from then on.
	violators map[uint64]bool
	// wrpkruExecHighwater is the highest seq of any executed WRPKRU.
	// Because WRPKRUs execute in program order, pkruDepSeq <= highwater
	// means every older WRPKRU has executed.
	wrpkruExecHighwater uint64

	// CPI-stack accounting (one bucket per Step; see accountCycle).
	retiredThisCycle int
	renameBlock      stallReason // why rename made no progress this cycle
	renameBlockPC    uint64      // PC of the instruction rename blocked on
	firstRetiredPC   uint64      // oldest PC retired this cycle
	recoverUntil     uint64      // squash-redirect shadow end cycle

	// Idle fast-forward bookkeeping (fastpath.go): progressed records
	// whether any stage changed machine state this Step (beyond the per-cycle
	// counters), renameWanted whether rename had a ready instruction it could
	// not rename, and lastBucket the CPI bucket accountCycle attributed the
	// cycle to — exactly what a batch of identical stall cycles must repeat.
	progressed   bool
	renameWanted bool
	lastBucket   CPIBucket

	// Batched load-latency histogram: plain integer bucket counters bumped
	// on the hot path, materialized into a stats HistValue only at snapshot
	// time (StatsRegistry registers them via HistogramFunc).
	loadLatCounts [len(loadLatBounds) + 1]uint64
	loadLatSum    uint64
	loadLatN      uint64

	// reg is the lazily built unified metrics registry over this machine
	// (StatsRegistry).
	reg *stats.Registry
}

// noDone is nextDone's value when no issued entry awaits completion.
const noDone = ^uint64(0)

type fqEntry struct {
	pc        uint64
	in        isa.Inst
	readyAt   uint64
	fetchedAt uint64
	// badFetch marks a faulting fetch marker (pc off the text segment), so
	// rename can recognize it without a second program lookup.
	badFetch bool

	predTaken  bool
	predTarget uint64
	hasDir     bool
	dir        bpred.DirState
	rasCkpt    int // RAS undo-log index (see Machine.rasLog)
}

// New loads prog and builds a machine.
func New(cfg Config, prog *asm.Program) (*Machine, error) {
	as, err := prog.Load()
	if err != nil {
		return nil, err
	}
	return NewWithState(cfg, prog, as, nil, mpk.AllowAll, prog.Entry)
}

// NewWithState builds a machine resuming from a checkpointed architectural
// state: an existing address space (typically fast-forwarded by the
// functional simulator), a register file (nil for the program's initial
// registers), a committed PKRU, and a start pc. This is how SimPoint
// intervals are simulated in detail from the middle of a program.
func NewWithState(cfg Config, prog *asm.Program, as *mem.AddressSpace,
	regs *[isa.NumRegs]uint64, pkru mpk.PKRU, pc uint64) (*Machine, error) {
	pol, err := newPolicy(cfg.Mode)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(pol); err != nil {
		return nil, err
	}
	pkruEntries := pol.ROBPkruEntries(cfg)
	fqCap := cfg.Width * (cfg.FrontendDepth + 1)
	alWords := (cfg.ALSize + 63) / 64
	m := &Machine{
		Cfg:            cfg,
		policy:         pol,
		Prog:           prog,
		AS:             as,
		Hier:           cache.NewHierarchy(cfg.Caches),
		DTLB:           tlb.New(cfg.DTLB),
		ITLB:           tlb.New(cfg.ITLB),
		PKRUState:      core.New(core.Config{ROBSize: max(pkruEntries, 1)}),
		tage:           bpred.NewTAGE(),
		btb:            bpred.NewBTB(cfg.BTBEntries),
		ras:            bpred.NewRAS(cfg.RASEntries),
		pc:             pc,
		prf:            make([]uint64, cfg.PRFSize),
		prfReady:       make([]bool, cfg.PRFSize),
		al:             make([]alEntry, cfg.ALSize),
		fq:             make([]fqEntry, fqCap),
		iqBits:         make(slotBits, alWords),
		readyBits:      make(slotBits, alWords),
		issuedBits:     make(slotBits, alWords),
		unresolvedBits: make(slotBits, alWords),
		consHead:       make([]int32, cfg.PRFSize),
		rasLog:         make([]bpred.RASUndo, cfg.ALSize+fqCap+2),
		nextDone:       noDone,
	}
	for p := range m.consHead {
		m.consHead[p] = noLink
	}
	m.PKRUState.SetARF(pkru)
	if cfg.MemDepSpeculation {
		m.violators = make(map[uint64]bool)
	}
	// Architectural registers live in phys 0..31 initially.
	for r := 0; r < isa.NumRegs; r++ {
		m.rmt[r] = r
		m.amt[r] = r
		m.prfReady[r] = true
	}
	if regs != nil {
		for r := 0; r < isa.NumRegs; r++ {
			m.prf[r] = regs[r]
		}
		m.prf[isa.RegZero] = 0
	} else {
		for r, v := range prog.InitRegs {
			m.prf[r] = v
		}
	}
	// Preallocate the free list at full PRF capacity: squash and retire push
	// registers back with plain appends, and a capacity that can hold every
	// physical register guarantees those pushes never reallocate.
	m.freeList = make([]int, 0, cfg.PRFSize)
	for p := isa.NumRegs; p < cfg.PRFSize; p++ {
		m.freeList = append(m.freeList, p)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Fetch-queue ring

// fqPush appends a slot at the tail and returns it; the caller overwrites it
// entirely. Callers check fqFull first.
func (m *Machine) fqPush() *fqEntry {
	i := m.fqHead + m.fqLen
	if i >= len(m.fq) {
		i -= len(m.fq)
	}
	m.fqLen++
	return &m.fq[i]
}

// fqFront returns the oldest queued entry. The pointer stays valid until the
// next fqPush, which cannot happen before the fetch stage runs — rename (the
// only consumer) finishes with the entry first.
func (m *Machine) fqFront() *fqEntry { return &m.fq[m.fqHead] }

// fqPop removes the oldest entry.
func (m *Machine) fqPop() {
	m.fqHead++
	if m.fqHead == len(m.fq) {
		m.fqHead = 0
	}
	m.fqLen--
}

// fqClear empties the queue (squash redirect).
func (m *Machine) fqClear() { m.fqHead, m.fqLen = 0, 0 }

// RunInsts steps until n instructions have retired (or HALT/fault/cycle
// budget). Used for fixed-length SimPoint interval simulation.
func (m *Machine) RunInsts(n, maxCycles uint64) error {
	maxCycles = m.clampBudget(maxCycles)
	for m.cycle < maxCycles && m.Stats.Insts < n {
		if m.halted {
			m.Stats.Stop = StopHalt
			return nil
		}
		if m.fault != nil {
			m.Stats.Stop = StopFault
			return m.fault
		}
		m.stepFast(maxCycles)
	}
	if m.halted {
		m.Stats.Stop = StopHalt
		return nil
	}
	if m.Stats.Insts >= n {
		m.Stats.Stop = StopInstLimit
		return nil
	}
	if m.fault != nil {
		m.Stats.Stop = StopFault
		return m.fault
	}
	m.Stats.Stop = StopCycleLimit
	return ErrCycleLimit
}

// clampBudget folds the config-level cycle budget into a caller's budget.
func (m *Machine) clampBudget(maxCycles uint64) uint64 {
	if m.Cfg.MaxCycles > 0 && m.Cfg.MaxCycles < maxCycles {
		return m.Cfg.MaxCycles
	}
	return maxCycles
}

// Halted reports whether the program has retired its HALT.
func (m *Machine) Halted() bool { return m.halted }

// Fault returns the fault that terminated the run, if any.
func (m *Machine) Fault() *mem.Fault { return m.fault }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// ArchReg reads the committed architectural value of register r.
func (m *Machine) ArchReg(r int) uint64 { return m.prf[m.amt[r]] }

// ArchRegs returns the committed architectural register file.
func (m *Machine) ArchRegs() [isa.NumRegs]uint64 {
	var out [isa.NumRegs]uint64
	for r := 0; r < isa.NumRegs; r++ {
		out[r] = m.prf[m.amt[r]]
	}
	return out
}

// PKRU returns the committed PKRU.
func (m *Machine) PKRU() mpk.PKRU { return m.PKRUState.ARF() }

// FreeRegCount returns the free-list depth (invariant: after the pipeline
// drains, free + architectural registers == PRF size).
func (m *Machine) FreeRegCount() int { return len(m.freeList) }

// Predictors exposes the direction predictor and BTB so a functional-warming
// pass (SimPoint) can train them before detailed simulation starts.
func (m *Machine) Predictors() (*bpred.TAGE, *bpred.BTB) { return m.tage, m.btb }

// SetArchState overwrites the committed architectural state. It is only
// meaningful before the first Step (SimPoint installs the checkpoint after
// functional warming has run against the shared address space).
func (m *Machine) SetArchState(regs *[isa.NumRegs]uint64, pkru mpk.PKRU, pc uint64) {
	for r := 0; r < isa.NumRegs; r++ {
		m.prf[m.amt[r]] = regs[r]
	}
	m.prf[m.amt[isa.RegZero]] = 0
	m.PKRUState.SetARF(pkru)
	m.pc = pc
}

// WarmRAS seeds the return-address stack from a checkpointed call stack,
// oldest frame first. The pushes bypass the undo log, so they form the
// baseline every squash rewinds to, never past. Like SetArchState it is only
// meaningful before the first Step — it is the RAS half of a SimPoint
// checkpoint restore (the branch-history half replays through Predictors).
func (m *Machine) WarmRAS(stack []uint64) {
	for _, addr := range stack {
		m.ras.Push(addr)
	}
}

// InFlight returns the number of active-list entries currently occupied.
func (m *Machine) InFlight() int { return m.alCnt }

// ErrCycleLimit is returned by Run when the cycle budget expires first.
var ErrCycleLimit = fmt.Errorf("pipeline: cycle limit reached")

// Run steps the machine until HALT retires, a fault terminates the program,
// or the cycle budget (the smaller of maxCycles and Config.MaxCycles, when
// set) elapses. Stats.Stop records which of those ended the run.
func (m *Machine) Run(maxCycles uint64) error {
	return m.RunContext(context.Background(), maxCycles)
}

// ctxCheckInterval is how often (in cycles) RunContext polls its context.
// 1024 cycles is ~1 µs of wall time per poll-free stretch, so cancellation
// lands long before one server stats interval while keeping the hot loop
// free of per-cycle channel operations.
const ctxCheckInterval = 1024

// RunContext is Run with cooperative cancellation: the context is polled
// every ctxCheckInterval cycles and a cancellation surfaces as ctx.Err()
// with Stats.Stop = StopCancelled. This is the seam the simulation server
// uses for DELETE /v1/jobs/{id} and shutdown deadlines.
func (m *Machine) RunContext(ctx context.Context, maxCycles uint64) error {
	maxCycles = m.clampBudget(maxCycles)
	done := ctx.Done()
	// The poll schedule is a moving target rather than a modulo so that idle
	// fast-forward skips (which land the cycle counter on arbitrary values)
	// cannot starve the cancellation check.
	nextPoll := m.cycle
	for m.cycle < maxCycles {
		if m.halted {
			m.Stats.Stop = StopHalt
			return nil
		}
		if m.fault != nil {
			m.Stats.Stop = StopFault
			return m.fault
		}
		if done != nil && m.cycle >= nextPoll {
			nextPoll = m.cycle + ctxCheckInterval
			select {
			case <-done:
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					m.Stats.Stop = StopDeadline
				} else {
					m.Stats.Stop = StopCancelled
				}
				return ctx.Err()
			default:
			}
		}
		m.stepFast(maxCycles)
	}
	if m.halted {
		m.Stats.Stop = StopHalt
		return nil
	}
	if m.fault != nil {
		m.Stats.Stop = StopFault
		return m.fault
	}
	m.Stats.Stop = StopCycleLimit
	return ErrCycleLimit
}

// Step advances one cycle. Stage order within the cycle is back to front so
// same-cycle structural hazards resolve conservatively.
func (m *Machine) Step() {
	m.cycle++
	m.Stats.Cycles++
	m.retiredThisCycle = 0
	m.renameBlock = stallNone
	m.renameWanted = false
	m.progressed = false
	m.completeStage()
	m.retireStage()
	m.issueStage()
	m.renameStage()
	m.fetchStage()
	m.accountCycle()
}

// accountCycle attributes the cycle just simulated to exactly one CPI-stack
// bucket. Precedence: retired work beats every stall; PKRU serialization and
// ROB_pkru capacity beat the generic causes (they are what the paper's
// figures single out); a non-empty window attributes to its oldest
// instruction (memory vs execution latency); an empty window is a squash
// bubble inside the redirect shadow, frontend starvation otherwise.
//
// When a ProfileSink is attached, the same single-bucket attribution is
// forwarded together with the responsible PC (see ProfileSink for the
// per-bucket PC rule), so a sink's per-PC sums reconstruct Stats.CPI exactly.
func (m *Machine) accountCycle() {
	c := &m.Stats.CPI
	b := BucketBase
	var pc uint64
	switch {
	case m.retiredThisCycle > 0:
		c.Base++
		pc = m.firstRetiredPC
	case m.renameBlock == stallSerialize:
		c.Serialize++
		b = BucketSerialize
		if m.Prof != nil {
			pc = m.serializeSitePC()
		}
	case m.renameBlock == stallPkruFull:
		c.PkruFull++
		b = BucketPkruFull
		pc = m.renameBlockPC
	case m.alCnt > 0:
		e := m.alAt(0)
		if e.isLoad || e.isStore {
			c.Memory++
			b = BucketMemory
		} else {
			c.Base++
		}
		pc = e.pc
	case m.cycle <= m.recoverUntil:
		c.SquashRecovery++
		b = BucketSquashRecovery
		pc = m.pc
	default:
		c.Frontend++
		b = BucketFrontend
		pc = m.pc
	}
	m.lastBucket = b
	if m.Prof != nil {
		m.Prof.CycleAttributed(b, pc)
	}
}

// emit forwards a microarchitectural event to the trace ring, if attached.
func (m *Machine) emit(e trace.Event) {
	if m.Events != nil {
		e.Cycle = m.cycle
		m.Events.Emit(e)
	}
}

// alAt returns the entry at ring offset i from head (0 = oldest). Offsets are
// always < len(al) and head wraps below len(al), so a single conditional
// subtract replaces the modulo — this is the hottest address computation in
// the simulator and an integer divide here dominated the seed profile.
func (m *Machine) alAt(i int) *alEntry {
	i += m.alHead
	if n := len(m.al); i >= n {
		i -= n
	}
	return &m.al[i]
}
