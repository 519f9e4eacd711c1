package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
)

// runExecutionContained is the worker pool's panic boundary: any panic that
// escapes runExecution — a simulation bug, a fault-injected panic in the
// bookkeeping path — resolves the execution as a failed job carrying the
// panic value and stack, and the worker goroutine survives to serve the
// next job. The containment is what makes "a panicking simulation" a job
// outcome instead of a daemon outage.
func (s *Server) runExecutionContained(ex *execution) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			s.logger.Error("panic contained in worker pool",
				"trace_id", ex.sc.Trace.String(), "key", ex.key, "panic", fmt.Sprint(r))
			if ex.resolve(outcome{state: api.StateFailed, errMsg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}) {
				s.jobsFailed.Add(1)
			}
			// Both idempotent: the single-flight slot is released, the
			// execution's jobs retired and its outcome published even when
			// the panic struck mid-bookkeeping, after resolve.
			s.onExecutionDone(ex)
			ex.publish()
		}
	}()
	s.runExecution(ex)
}

// runExecution is one worker's handling of one execution: simulate in
// event-interval chunks, publish progress, resolve the terminal state, do
// the server-side bookkeeping (metrics, cache fill, single-flight slot,
// job spans), and only then publish the terminal state — so whoever sees a
// job done also sees its spans, histograms and cached result. The
// queue.wait and simulate stage spans close here with exactly the durations
// the matching server.latency.* histograms observe.
func (s *Server) runExecution(ex *execution) {
	if !ex.start() {
		// Cancelled while queued; Cancel already resolved it.
		return
	}
	s.running.Add(1)
	t0 := time.Now()
	queueWait := t0.Sub(ex.queuedAt)
	s.lat.queueWait.Observe(ms(queueWait))
	ex.queueSpan.EndAt(ex.queuedAt.Add(queueWait))
	ex.simSpan = s.rec.StartSpanAt(ex.sc, "simulate", t0)
	state, errMsg, result, cycle, insts := s.simulateContained(ex)
	s.running.Add(-1)
	simDur := time.Since(t0)
	s.lat.simulate.Observe(ms(simDur))
	ex.simSpan.SetAttr("state", state)
	ex.simSpan.SetAttr("cycles", cycle)
	ex.simSpan.SetAttr("insts", insts)
	if errMsg != "" {
		ex.simSpan.SetError(errMsg)
	}
	ex.simSpan.EndAt(t0.Add(simDur))
	packed := packResult(result)
	if !ex.resolve(outcome{state, errMsg, packed, cycle, insts}) {
		return // lost the race with Cancel; it does the bookkeeping
	}
	s.wallMSTotal.Add(uint64(simDur.Milliseconds()))
	switch state {
	case api.StateDone:
		s.jobsDone.Add(1)
		// Only a clean, deterministic completion reaches the cache: failed
		// (including deadline-exceeded and panicking) and cancelled runs
		// never produce result bytes, so they can never poison it.
		ex.setTrace("", s.cache.put(ex.key, packed))
	case api.StateFailed:
		s.jobsFailed.Add(1)
		ex.setTrace("", "uncacheable")
	case api.StateCancelled:
		s.jobsCancelled.Add(1)
		ex.setTrace("", "uncacheable")
	}
	s.onExecutionDone(ex)
	ex.publish()
}

// simulateContained runs the simulation itself under a recover, so a panic
// inside the pipeline (or injected at server.worker.simulate) becomes a
// failed-job outcome with the panic value and stack in the error — and a
// panic_recovered event on the simulate span, so a chaos run's contained
// panics are reconstructable per request.
func (s *Server) simulateContained(ex *execution) (state, errMsg string, result []byte, cycle, insts uint64) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			ex.simSpan.Event("panic_recovered", "panic", fmt.Sprint(r))
			state = api.StateFailed
			errMsg = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			result = nil
		}
	}()
	return s.simulate(ex)
}

// simulate runs the job to completion, cancellation, or one of its budgets.
// The machine runs in chunks of the event interval; each chunk boundary
// publishes one progress event, so /v1/jobs/{id}/events streams at the same
// cadence as specmpk-sim -stats-interval.
//
// Two budgets with opposite taxonomies bound every job:
//
//   - The cycle budget (spec or server default). Exhausting it is DONE with
//     stop reason "cycle_limit": the budget is in the cache key and the
//     partial statistics are deterministic, so they are a legitimate,
//     cacheable result.
//   - The wall-clock budget (spec MaxWallMS or server default). Exhausting
//     it is FAILED with a "deadline:" error: how many cycles fit in a
//     wall-clock window depends on the host, so the partial run is not
//     deterministic and must never be cached.
//
// "failed" otherwise marks jobs that could not simulate at all (bad config,
// unbuildable program, injected worker fault).
func (s *Server) simulate(ex *execution) (state, errMsg string, result []byte, cycle, insts uint64) {
	if state, errMsg, result, cycle, insts, handled := s.forwardRemote(ex); handled {
		return state, errMsg, result, cycle, insts
	}
	spec := ex.spec
	if spec.Fidelity == api.FidelitySampled {
		return s.runSampled(ex)
	}
	cfg, err := spec.MachineConfig()
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}
	prog, err := spec.Program()
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return api.StateFailed, err.Error(), nil, 0, 0
	}

	// The wall-clock deadline wraps the execution's cancellation context so
	// Cancel and drain still surface as "cancelled", while expiry surfaces
	// as pipeline.StopDeadline. It is armed before the fault point so an
	// injected latency burns real wall budget, exactly like a stuck run.
	ctx := ex.ctx
	wallMS := spec.MaxWallMS
	if wallMS == 0 {
		wallMS = s.opt.MaxWallMS
	}
	if wallMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ex.ctx, time.Duration(wallMS)*time.Millisecond)
		defer cancel()
	}

	if ferr := fpWorkerSimulate.Fire(); ferr != nil {
		ex.simSpan.Event("fault_injected", "point", fpWorkerSimulate.Name(), "error", ferr.Error())
		return api.StateFailed, ferr.Error(), nil, 0, 0
	}

	budget := spec.MaxCycles
	if budget == 0 {
		budget = s.opt.MaxCycles
	}
	var prevCycle, prevInsts uint64
	for {
		next := m.Cycle() + s.opt.EventInterval
		if next > budget {
			next = budget
		}
		runErr := m.RunContext(ctx, next)
		st := m.Stats
		switch {
		case runErr == nil, st.Stop == pipeline.StopFault:
			// Halt and fault are both terminal simulation outcomes; the
			// result records which via stopReason.
			return s.buildResult(ex, m)
		case st.Stop == pipeline.StopCancelled:
			ex.setTrace(string(st.Stop), "")
			return api.StateCancelled, runErr.Error(), nil, st.Cycles, st.Insts
		case st.Stop == pipeline.StopDeadline:
			s.jobsDeadline.Add(1)
			ex.setTrace(string(st.Stop), "")
			ex.simSpan.Event("deadline_exceeded", "wall_ms", wallMS, "cycle", st.Cycles)
			return api.StateFailed,
				fmt.Sprintf("deadline: wall-clock budget (%d ms) exceeded at cycle %d", wallMS, st.Cycles),
				nil, st.Cycles, st.Insts
		case st.Stop == pipeline.StopCycleLimit:
			if m.Cycle() >= budget || m.Cycle() == prevCycle {
				// Budget exhausted — or Config.MaxCycles clamped the run
				// below the next chunk boundary, so no further progress is
				// possible. Either way the budget, not the program, ended
				// the run.
				return s.buildResult(ex, m)
			}
			dc, di := st.Cycles-prevCycle, st.Insts-prevInsts
			ipc := 0.0
			if dc > 0 {
				ipc = float64(di) / float64(dc)
			}
			ex.progress(st.Cycles, st.Insts, ipc)
			prevCycle, prevInsts = st.Cycles, st.Insts
		default:
			return api.StateFailed, runErr.Error(), nil, st.Cycles, st.Insts
		}
	}
}

// forwardRemote is the cluster seam on the worker path: when a Forwarder is
// installed and places the job's content-addressed key on a peer, the worker
// runs it there and adopts the peer's canonical result bytes verbatim — they
// enter the local cache bit-identical to a local run, so later submits of
// the same spec are served locally. handled=false falls through to local
// simulation: no forwarder, a coordinator-placed submit (loop prevention),
// a self-owned key, or the degradation ladder's bottom rung (every peer
// down, signalled by ErrDegradeLocal).
//
// Forwarding happens inside the execution rather than at the HTTP layer so
// everything local stays local: the job id, its event stream, single-flight
// dedup and the result cache all behave exactly as for a local run.
func (s *Server) forwardRemote(ex *execution) (state, errMsg string, result []byte, cycle, insts uint64, handled bool) {
	if s.fwd == nil || ex.forwarded || !s.fwd.Remote(ex.key) {
		return "", "", nil, 0, 0, false
	}
	ctx := ex.ctx
	if ex.sc.Valid() {
		// Thread the job's trace across the node hop: the forwarder's client
		// propagates it as a traceparent header, so the peer's spans join
		// this trace.
		ctx = otrace.ContextWith(ctx, ex.simSpan.Context())
	}
	out, err := s.fwd.RunRemote(ctx, ex.key, ex.spec)
	switch {
	case err == nil:
		s.jobsForwarded.Add(1)
		ex.setTrace(out.StopReason, "")
		ex.simSpan.SetAttr("forwarded_to", out.Peer)
		if out.PeerCacheHit {
			ex.simSpan.SetAttr("peer_cache_hit", true)
		}
		return api.StateDone, "", out.Result, out.Cycles, out.Insts, true
	case errors.Is(err, ErrDegradeLocal):
		s.forwardDegraded.Add(1)
		ex.simSpan.Event("cluster_degraded_local", "error", err.Error())
		s.logger.Warn("cluster degraded to local simulation",
			"trace_id", ex.sc.Trace.String(), "key", ex.key, "err", err)
		return "", "", nil, 0, 0, false
	case ex.ctx.Err() != nil:
		return api.StateCancelled, ex.ctx.Err().Error(), nil, 0, 0, true
	default:
		// A terminal remote outcome (failed/cancelled job on the owner). The
		// spec is deterministic, so simulating locally would reproduce it —
		// adopt the failure instead of paying for the rerun.
		return api.StateFailed, err.Error(), nil, 0, 0, true
	}
}

// buildResult marshals the machine's final state into the canonical result
// bytes under a marshal span (the last lifecycle stage). The encoding is
// deterministic (fixed struct field order, sorted map keys), so identical
// specs produce bit-identical result bytes — the property the
// content-addressed cache returns verbatim.
func (s *Server) buildResult(ex *execution, m *pipeline.Machine) (state, errMsg string, result []byte, cycle, insts uint64) {
	st := m.Stats
	ex.setTrace(string(st.Stop), "")
	mt := time.Now()
	msp := s.rec.StartSpanAt(ex.simSpan.Context(), "marshal", mt)
	// An injected marshal fault (error or drop alike) fails the job: a
	// result that cannot be encoded cannot be partially delivered.
	if ferr := fpResultMarshal.Fire(); ferr != nil {
		msp.Event("fault_injected", "point", fpResultMarshal.Name(), "error", ferr.Error())
		msp.SetError(ferr.Error())
		msp.End()
		return api.StateFailed, fmt.Sprintf("marshal result: %v", ferr), nil, st.Cycles, st.Insts
	}
	res := api.Result{
		Key:        ex.key,
		Version:    api.Version,
		Spec:       ex.spec,
		StopReason: string(st.Stop),
		Stats:      st,
		Metrics:    m.StatsRegistry().Snapshot().Flat(),
	}
	b, err := json.Marshal(res)
	if err != nil {
		msp.SetError(err.Error())
		msp.End()
		return api.StateFailed, fmt.Sprintf("marshal result: %v", err), nil, st.Cycles, st.Insts
	}
	msp.SetAttr("bytes", len(b))
	msp.SetAttr("stop_reason", string(st.Stop))
	msp.End()
	return api.StateDone, "", b, st.Cycles, st.Insts
}
