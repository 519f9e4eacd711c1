package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/stats"
)

// The cluster's fault points (see internal/faults): every new seam the
// coordinator adds to the request path is injectable, so the chaos machinery
// that hardened the single-node daemon drives cluster-level plans too.
//
//   - cluster.peer.lookup: the peer cache probe; an injected fault degrades
//     to a miss (the job simulates — never fails — exactly like a flaky
//     local cache).
//   - cluster.peer.forward: the forwarded run itself; an injected fault is
//     what a dying peer looks like and triggers failover to the next
//     replica.
//   - cluster.hedge.fire: suppresses a hedge that was about to launch
//     (injected error or drop), proving the primary path works alone.
//   - cluster.health.probe: a probe round against one peer; an injected
//     error counts as a probe failure, an injected drop skips the round.
//   - cluster.rebalance: re-placement after a peer failure; an injected
//     fault suppresses the failover launch, forcing the degradation ladder.
var (
	fpPeerLookup  = faults.Register("cluster.peer.lookup")
	fpPeerForward = faults.Register("cluster.peer.forward")
	fpHedgeFire   = faults.Register("cluster.hedge.fire")
	fpHealthProbe = faults.Register("cluster.health.probe")
	fpRebalance   = faults.Register("cluster.rebalance")
)

// ErrNoPeers signals that every placement failed or no healthy peer exists:
// the caller should fall to the degradation ladder's bottom rung and
// simulate locally. Always wrapped with context; test with errors.Is.
var ErrNoPeers = errors.New("cluster: no healthy peer available")

// Peer health states. Unknown is optimistic: a never-probed peer is a
// placement candidate (the run path finds out the truth), so a coordinator
// is useful before its first probe round completes.
const (
	peerUnknown int32 = iota
	peerUp
	peerDown
)

// Options configures a Coordinator.
type Options struct {
	// Peers is the cluster membership: every daemon address, including this
	// node's own (Self) when the coordinator is embedded in a daemon. All
	// nodes must be configured with the same list — placement is computed
	// locally from it.
	Peers []string
	// Self is this node's address in Peers ("" = a pure coordinator/client:
	// every key is remote). Self is added to the ring if absent from Peers.
	Self string
	// VNodes is the virtual-node count per node (0 = 64).
	VNodes int
	// LoadFactor bounds placement load: a candidate whose queueDepth +
	// jobsInFlight exceeds LoadFactor × (cluster average + 1) is demoted
	// behind less-loaded replicas (0 = 1.25). Classic bounded-load
	// consistent hashing: hot keys spill to the next replica instead of
	// piling onto one node.
	LoadFactor float64
	// HedgeAfter is the latency budget before a lagging placement is hedged
	// with a duplicate request to the next replica; first success wins.
	// Deterministic specs make hedges safe: both runs compute identical
	// bytes, and failed runs never enter any cache. 0 = 500ms, negative
	// disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the health-prober cadence (0 = 1s, negative disables
	// the background prober; ProbeNow still works).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = 2s).
	ProbeTimeout time.Duration
	// LookupTimeout bounds one peer cache probe (0 = 2s).
	LookupTimeout time.Duration
	// Retry shapes every peer client's resilience layer (zero = client
	// defaults).
	Retry client.RetryPolicy
	// Recorder receives the coordinator's spans (cluster.lookup,
	// cluster.forward, cluster.hedge); nil disables them (nil-safe seams).
	Recorder *otrace.Recorder
	// Logger receives health transitions and failovers (nil =
	// slog.Default()).
	Logger *slog.Logger
	// NewClient overrides peer-client construction (tests). nil =
	// client.New with Retry applied.
	NewClient func(addr string) *client.Client
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = defaultVNodes
	}
	if o.LoadFactor <= 0 {
		o.LoadFactor = 1.25
	}
	switch {
	case o.HedgeAfter == 0:
		o.HedgeAfter = 500 * time.Millisecond
	case o.HedgeAfter < 0:
		o.HedgeAfter = 0 // disabled
	}
	switch {
	case o.ProbeInterval == 0:
		o.ProbeInterval = time.Second
	case o.ProbeInterval < 0:
		o.ProbeInterval = 0 // disabled
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.LookupTimeout <= 0 {
		o.LookupTimeout = 2 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// peer is one remote daemon: its client plus the health/load state the
// prober maintains and placement reads.
type peer struct {
	name string
	c    *client.Client

	state      atomic.Int32 // peerUnknown | peerUp | peerDown
	load       atomic.Int64 // queueDepth + jobsInFlight from the last probe
	queueCap   atomic.Int64
	probeFails atomic.Int32 // consecutive failures; reset by a good probe
}

func (p *peer) isDown() bool { return p.state.Load() == peerDown }

// Coordinator places content-addressed jobs across the cluster. Safe for
// concurrent use; create with New, optionally Start the background prober,
// Close when done.
type Coordinator struct {
	opt    Options
	ring   *Ring
	self   string
	peers  []*peer // ring order of Nodes(), self excluded
	byName map[string]*peer
	rec    *otrace.Recorder
	logger *slog.Logger

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once

	// Metrics (atomics: snapshotted concurrently with placements).
	forwards        atomic.Uint64
	peerLookups     atomic.Uint64
	peerHits        atomic.Uint64
	hedgesFired     atomic.Uint64
	hedgesWon       atomic.Uint64
	failovers       atomic.Uint64
	resubmits       atomic.Uint64
	degraded        atomic.Uint64
	probes          atomic.Uint64
	probeFailures   atomic.Uint64
	transitionsDown atomic.Uint64
	transitionsUp   atomic.Uint64
	overloadSkips   atomic.Uint64
}

// New builds a coordinator over the membership in opt. It needs at least one
// peer besides Self.
func New(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	members := append([]string(nil), opt.Peers...)
	if opt.Self != "" {
		members = append(members, opt.Self) // ring dedups
	}
	ring := NewRing(members, opt.VNodes)
	c := &Coordinator{
		opt:       opt,
		ring:      ring,
		self:      opt.Self,
		byName:    make(map[string]*peer),
		rec:       opt.Recorder,
		logger:    opt.Logger,
		probeStop: make(chan struct{}),
	}
	newClient := opt.NewClient
	if newClient == nil {
		newClient = func(addr string) *client.Client {
			cl := client.New(addr)
			cl.Retry = opt.Retry
			return cl
		}
	}
	for _, name := range ring.Nodes() {
		if name == opt.Self {
			continue
		}
		p := &peer{name: name, c: newClient(name)}
		c.peers = append(c.peers, p)
		c.byName[name] = p
	}
	if len(c.peers) == 0 {
		return nil, fmt.Errorf("cluster: need at least one peer besides self (%q)", opt.Self)
	}
	return c, nil
}

// Start launches the background health prober (no-op when ProbeInterval
// disabled it). Idempotent.
func (c *Coordinator) Start() {
	c.startOnce.Do(func() {
		if c.opt.ProbeInterval <= 0 {
			return
		}
		c.probeWG.Add(1)
		go func() {
			defer c.probeWG.Done()
			t := time.NewTicker(c.opt.ProbeInterval)
			defer t.Stop()
			c.ProbeNow()
			for {
				select {
				case <-t.C:
					c.ProbeNow()
				case <-c.probeStop:
					return
				}
			}
		}()
	})
}

// Close stops the background prober. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.probeStop) })
	c.probeWG.Wait()
}

// ProbeNow runs one synchronous health-probe round across every peer —
// the prober's body, exported so tests and CLIs can force a deterministic
// refresh.
func (c *Coordinator) ProbeNow() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.probeOne(p)
		}(p)
	}
	wg.Wait()
}

func (c *Coordinator) probeOne(p *peer) {
	if err := fpHealthProbe.Fire(); err != nil {
		if faults.IsDrop(err) {
			return // round skipped: state simply goes stale
		}
		c.probeFailures.Add(1)
		c.noteProbeFailure(p, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opt.ProbeTimeout)
	h, err := p.c.HealthzInfo(ctx)
	cancel()
	c.probes.Add(1)
	if err != nil {
		c.probeFailures.Add(1)
		c.noteProbeFailure(p, err)
		return
	}
	p.probeFails.Store(0)
	switch {
	case h.Version != api.Version:
		// A peer on different simulation semantics produces results our
		// cache keys must never adopt — treat as down until it upgrades.
		c.setState(p, peerDown, fmt.Sprintf("version %q != %q", h.Version, api.Version))
	case h.Status != "ok":
		// Alive but draining: stop placing work there, keep probing.
		c.setState(p, peerDown, "status "+h.Status)
	default:
		p.load.Store(int64(h.QueueDepth + h.JobsInFlight))
		p.queueCap.Store(int64(h.QueueCap))
		c.setState(p, peerUp, "")
	}
}

// noteProbeFailure marks a peer down after two consecutive probe failures —
// one lost probe is noise, two in a row is an outage.
func (c *Coordinator) noteProbeFailure(p *peer, err error) {
	if p.probeFails.Add(1) >= 2 {
		c.setState(p, peerDown, err.Error())
	}
}

// setState transitions a peer's health state, counting and logging edges.
func (c *Coordinator) setState(p *peer, state int32, reason string) {
	prev := p.state.Swap(state)
	if prev == state {
		return
	}
	switch state {
	case peerDown:
		c.transitionsDown.Add(1)
		c.logger.Warn("cluster peer down", "peer", p.name, "reason", reason)
	case peerUp:
		if prev == peerDown {
			c.transitionsUp.Add(1)
			c.logger.Info("cluster peer recovered", "peer", p.name)
		}
	}
}

// markDown is the run path's verdict: a placement failed at the connection
// level, so the peer is gone right now. Recovery comes only from a
// successful probe.
func (c *Coordinator) markDown(p *peer, err error) {
	c.setState(p, peerDown, err.Error())
}

// Owner returns the node (self included) owning key on the ring.
func (c *Coordinator) Owner(key string) string { return c.ring.Owner(key) }

// Remote reports whether key should run on a peer rather than locally: true
// when a not-known-down peer precedes self in the key's ring order. With
// Self == "" (pure coordinator) every key with a live peer is remote; when
// every peer is known down the answer is false — the local degradation
// fast path, no network round trips.
func (c *Coordinator) Remote(key string) bool {
	for _, name := range c.ring.Order(key) {
		if name == c.self && c.self != "" {
			return false
		}
		if p := c.byName[name]; p != nil && !p.isDown() {
			return true
		}
	}
	return false
}

// placement returns the key's candidate peers in preference order: ring
// order, self excluded, known-down peers excluded, and — bounded-load — the
// candidates whose last-probed load exceeds LoadFactor × (average + 1)
// demoted behind the rest (they still serve as failover targets).
func (c *Coordinator) placement(key string) []*peer {
	var cands []*peer
	for _, name := range c.ring.Order(key) {
		if name == c.self && c.self != "" {
			continue
		}
		if p := c.byName[name]; p != nil && !p.isDown() {
			cands = append(cands, p)
		}
	}
	if len(cands) < 2 {
		return cands
	}
	var total int64
	for _, p := range cands {
		total += p.load.Load()
	}
	bound := c.opt.LoadFactor * (float64(total)/float64(len(cands)) + 1)
	var ok, demoted []*peer
	for _, p := range cands {
		if float64(p.load.Load()) > bound {
			demoted = append(demoted, p)
			c.overloadSkips.Add(1)
		} else {
			ok = append(ok, p)
		}
	}
	return append(ok, demoted...)
}

// RemoteResult is one cluster-placed job's outcome.
type RemoteResult struct {
	// Raw is the canonical api.Result JSON verbatim from the peer —
	// bit-identical to a local run of the same spec.
	Raw json.RawMessage
	// StopReason/Cycles/Insts are the run's headline figures.
	StopReason    string
	Cycles, Insts uint64
	// Peer is the node that answered. PeerCacheHit marks an answer served
	// from the peer's content-addressed cache without simulating anywhere;
	// Hedged marks a result won by a hedge request.
	Peer         string
	PeerCacheHit bool
	Hedged       bool
}

// resultMeta extracts the headline figures from canonical result bytes.
func resultMeta(raw []byte) (stop string, cycles, insts uint64, err error) {
	var res api.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", 0, 0, err
	}
	return res.StopReason, res.Stats.Cycles, res.Stats.Insts, nil
}

// RunRemote places spec (whose content-addressed key is key) on the cluster:
// peer cache probe on the preferred replica first (cluster-wide
// single-flight), then a hedged, failover-protected run. The returned error
// wraps ErrNoPeers when every placement failed — the signal to degrade to
// local simulation.
func (c *Coordinator) RunRemote(ctx context.Context, key string, spec api.JobSpec) (RemoteResult, error) {
	cands := c.placement(key)
	if len(cands) == 0 {
		c.degraded.Add(1)
		return RemoteResult{}, fmt.Errorf("%w (all %d peers down)", ErrNoPeers, len(c.peers))
	}
	// Every submit this coordinator issues is marked as already placed, so
	// the receiving daemon never forwards onward: routing loops are
	// impossible even when peers disagree about membership.
	ctx = client.WithForwarded(ctx)
	parent := otrace.FromContext(ctx)
	if rr, ok := c.peerLookup(ctx, parent, cands[0], key); ok {
		return rr, nil
	}
	return c.runHedged(ctx, parent, cands, key, spec)
}

// Run is RunRemote plus key derivation and result decoding — the one-call
// path specmpk-bench's cluster mode uses.
func (c *Coordinator) Run(ctx context.Context, spec api.JobSpec) (api.Result, RemoteResult, error) {
	key, err := spec.Key()
	if err != nil {
		return api.Result{}, RemoteResult{}, err
	}
	rr, err := c.RunRemote(ctx, key, spec)
	if err != nil {
		return api.Result{}, rr, err
	}
	var res api.Result
	if err := json.Unmarshal(rr.Raw, &res); err != nil {
		return api.Result{}, rr, fmt.Errorf("cluster: bad result payload from %s: %w", rr.Peer, err)
	}
	return res, rr, nil
}

// peerLookup probes the preferred replica's content-addressed cache before
// anything simulates: if any node already computed this key, the whole
// cluster answers from that one execution. Failures of any kind degrade to
// a miss — the run path is the fallback, never an error.
func (c *Coordinator) peerLookup(ctx context.Context, parent otrace.SpanContext, p *peer, key string) (RemoteResult, bool) {
	c.peerLookups.Add(1)
	sp := c.rec.StartSpan(parent, "cluster.lookup")
	sp.SetAttr("peer", p.name)
	sp.SetAttr("key", key)
	defer sp.End()
	if err := fpPeerLookup.Fire(); err != nil {
		sp.Event("fault_injected", "point", fpPeerLookup.Name(), "error", err.Error())
		sp.SetAttr("hit", false)
		return RemoteResult{}, false
	}
	lctx, cancel := context.WithTimeout(ctx, c.opt.LookupTimeout)
	raw, ok, err := p.c.CachedResult(lctx, key)
	cancel()
	if err != nil || !ok {
		if err != nil {
			sp.SetError(err.Error())
		}
		sp.SetAttr("hit", false)
		return RemoteResult{}, false
	}
	stop, cycles, insts, err := resultMeta(raw)
	if err != nil {
		sp.SetError("bad cached payload: " + err.Error())
		sp.SetAttr("hit", false)
		return RemoteResult{}, false
	}
	c.peerHits.Add(1)
	sp.SetAttr("hit", true)
	return RemoteResult{
		Raw: raw, StopReason: stop, Cycles: cycles, Insts: insts,
		Peer: p.name, PeerCacheHit: true,
	}, true
}

// runHedged runs spec on the candidate list with hedging and failover:
// launch on the preferred replica; if it exceeds the hedge budget, launch a
// duplicate on the next replica (first success wins — safe because the spec
// is deterministic and failed runs never enter any cache); if a placement
// dies at the connection level, mark the peer down and re-place via
// content-addressed resubmission on the next replica. A terminal job
// failure on a healthy peer is returned as-is: deterministic, re-running
// reproduces it.
func (c *Coordinator) runHedged(ctx context.Context, parent otrace.SpanContext, cands []*peer, key string, spec api.JobSpec) (RemoteResult, error) {
	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	type outcome struct {
		rr    RemoteResult
		err   error
		p     *peer
		hedge bool
	}
	results := make(chan outcome, len(cands))
	next := 0
	launch := func(hedge, resubmit bool) bool {
		if next >= len(cands) {
			return false
		}
		p := cands[next]
		next++
		c.forwards.Add(1)
		actx := runCtx
		if resubmit {
			actx = client.WithResubmit(actx)
		}
		go func() {
			sp := c.rec.StartSpan(parent, "cluster.forward")
			sp.SetAttr("peer", p.name)
			sp.SetAttr("key", key)
			if hedge {
				sp.SetAttr("hedge", true)
			}
			if resubmit {
				sp.SetAttr("resubmit", true)
			}
			rr, err := c.runOn(actx, p, spec)
			rr.Hedged = hedge
			if err != nil {
				sp.SetError(err.Error())
			}
			sp.End()
			results <- outcome{rr: rr, err: err, p: p, hedge: hedge}
		}()
		return true
	}
	launch(false, false)
	pending := 1
	var hedgeC <-chan time.Time
	if c.opt.HedgeAfter > 0 && len(cands) > 1 {
		t := time.NewTimer(c.opt.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for pending > 0 {
		select {
		case o := <-results:
			pending--
			var jobErr *client.JobError
			switch {
			case o.err == nil:
				if o.hedge {
					c.hedgesWon.Add(1)
				}
				return o.rr, nil
			case ctx.Err() != nil:
				return RemoteResult{}, ctx.Err()
			case errors.As(o.err, &jobErr):
				// Terminal on a live peer: deterministic, never failed over.
				return RemoteResult{}, o.err
			default:
				lastErr = o.err
				if client.IsPeerDown(o.err) {
					c.markDown(o.p, o.err)
				}
				c.failovers.Add(1)
				if ferr := fpRebalance.Fire(); ferr != nil {
					// Injected: this failure's re-placement is suppressed —
					// remaining in-flight attempts (or the degradation
					// ladder) must carry the job.
				} else if launch(false, true) {
					c.resubmits.Add(1)
					pending++
				}
			}
		case <-hedgeC:
			hedgeC = nil // at most one hedge per job
			if ferr := fpHedgeFire.Fire(); ferr != nil {
				// Injected: the hedge is suppressed; the primary must win.
			} else if launch(true, false) {
				c.hedgesFired.Add(1)
				pending++
			}
		case <-ctx.Done():
			return RemoteResult{}, ctx.Err()
		}
	}
	c.degraded.Add(1)
	return RemoteResult{}, fmt.Errorf("%w (every placement of %d candidates failed, last: %v)", ErrNoPeers, len(cands), lastErr)
}

// runOn executes spec on one peer via the client's full resilience stack
// (retry, reconnect, restart resubmission).
func (c *Coordinator) runOn(ctx context.Context, p *peer, spec api.JobSpec) (RemoteResult, error) {
	if err := fpPeerForward.Fire(); err != nil {
		return RemoteResult{}, fmt.Errorf("cluster: forward to %s: %w", p.name, err)
	}
	res, info, err := p.c.Run(ctx, spec)
	if err != nil {
		return RemoteResult{}, err
	}
	if len(info.Result) == 0 {
		return RemoteResult{}, fmt.Errorf("cluster: peer %s answered done with no result payload", p.name)
	}
	// Canonicalize to compact JSON. The job-info endpoint already embeds the
	// stored (compact) result verbatim, but an older peer at the same API
	// version answers indented; compacting touches no value (numbers pass
	// through verbatim), so forwarded results stay bit-identical to the
	// origin node's cache — and to the peer-lookup path, which reads that
	// cache directly — whichever build the peer runs.
	var buf bytes.Buffer
	if err := json.Compact(&buf, info.Result); err != nil {
		return RemoteResult{}, fmt.Errorf("cluster: bad result payload from %s: %w", p.name, err)
	}
	return RemoteResult{
		Raw:        buf.Bytes(),
		StopReason: res.StopReason,
		Cycles:     res.Stats.Cycles,
		Insts:      res.Stats.Insts,
		Peer:       p.name,
	}, nil
}

// healthyPeers counts peers not known to be down.
func (c *Coordinator) healthyPeers() int {
	n := 0
	for _, p := range c.peers {
		if !p.isDown() {
			n++
		}
	}
	return n
}

// AnyClient returns a client for some live peer (any peer when all are
// down) — for callers that need a plain single-node client, like the bench's
// metrics scrape.
func (c *Coordinator) AnyClient() *client.Client {
	for _, p := range c.peers {
		if !p.isDown() {
			return p.c
		}
	}
	return c.peers[0].c
}

// RegisterMetrics exports the coordinator's cluster.* metrics into reg —
// the daemon merges them into its /v1/metrics registry.
func (c *Coordinator) RegisterMetrics(r *stats.Registry) {
	r.Counter("cluster.jobs.forwarded", "runs launched on cluster peers (hedges and failovers included)", c.forwards.Load)
	r.Counter("cluster.peer_cache.lookups", "peer cache probes issued before simulating", c.peerLookups.Load)
	r.Counter("cluster.peer_cache.hits", "jobs answered from a peer's content-addressed cache", c.peerHits.Load)
	r.Counter("cluster.hedges.fired", "duplicate requests launched after the hedge latency budget", c.hedgesFired.Load)
	r.Counter("cluster.hedges.won", "hedged requests that answered first", c.hedgesWon.Load)
	r.Counter("cluster.failovers", "placements that failed and fell to the next replica", c.failovers.Load)
	r.Counter("cluster.resubmits", "content-addressed resubmissions after a placement died", c.resubmits.Load)
	r.Counter("cluster.degraded_local", "jobs with no healthy placement (degraded to local simulation)", c.degraded.Load)
	r.Counter("cluster.health.probes", "health probes completed", c.probes.Load)
	r.Counter("cluster.health.probe_failures", "health probes failed", c.probeFailures.Load)
	r.Counter("cluster.peers.transitions_down", "peer up->down health transitions", c.transitionsDown.Load)
	r.Counter("cluster.peers.transitions_up", "peer down->up health transitions", c.transitionsUp.Load)
	r.Counter("cluster.placement.overload_demotions", "bounded-load demotions of overloaded candidates", c.overloadSkips.Load)
	r.Gauge("cluster.peers.total", "configured peers (self excluded)", func() float64 { return float64(len(c.peers)) })
	r.Gauge("cluster.peers.healthy", "peers not known down", func() float64 { return float64(c.healthyPeers()) })
}

// Summary renders the coordinator's counters as one line — what
// specmpk-bench prints on stderr after a cluster sweep.
func (c *Coordinator) Summary() string {
	return fmt.Sprintf(
		"peers=%d healthy=%d forwards=%d peer_cache_hits=%d/%d hedges=%d won=%d failovers=%d resubmits=%d degraded_local=%d",
		len(c.peers), c.healthyPeers(), c.forwards.Load(),
		c.peerHits.Load(), c.peerLookups.Load(),
		c.hedgesFired.Load(), c.hedgesWon.Load(),
		c.failovers.Load(), c.resubmits.Load(), c.degraded.Load())
}
