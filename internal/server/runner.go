package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"specmpk/internal/asm"
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
	o := s.simulateContained(ex)
	s.running.Add(-1)
	simDur := time.Since(t0)
	s.lat.simulate.Observe(ms(simDur))
	ex.simSpan.SetAttr("state", o.state)
	ex.simSpan.SetAttr("cycles", o.cycle)
	ex.simSpan.SetAttr("insts", o.insts)
	if o.errMsg != "" {
		ex.simSpan.SetError(o.errMsg)
	}
	ex.simSpan.EndAt(t0.Add(simDur))
	if !ex.resolve(o) {
		return // lost the race with Cancel; it does the bookkeeping
	}
	s.wallMSTotal.Add(uint64(simDur.Milliseconds()))
	switch o.state {
	case api.StateDone:
		s.jobsDone.Add(1)
		// Only a clean, deterministic completion reaches the cache: failed
		// (including deadline-exceeded and panicking) and cancelled runs
		// never produce result bytes, so they can never poison it.
		ex.setTrace("", s.cache.put(ex.key, o.result))
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
func (s *Server) simulateContained(ex *execution) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			ex.simSpan.Event("panic_recovered", "panic", fmt.Sprint(r))
			o = failed(fmt.Sprintf("panic: %v\n%s", r, debug.Stack()), 0, 0)
		}
	}()
	return s.simulate(ex)
}

// failed is the outcome of a job that ended in error after cycle cycles and
// insts retired instructions.
func failed(errMsg string, cycle, insts uint64) outcome {
	return outcome{state: api.StateFailed, errMsg: errMsg, cycle: cycle, insts: insts}
}

// simRun is what every local simulation starts from: the spec's machine and
// program, the context that carries the wall-clock deadline, and both
// budgets resolved against the server defaults.
type simRun struct {
	ctx    context.Context
	cfg    pipeline.Config
	prog   *asm.Program
	wallMS uint64 // 0: no wall-clock budget
	budget uint64 // cycle budget of a full-fidelity run
}

// simulate runs the job to completion, cancellation, or one of its budgets,
// at the fidelity the spec asks for — or on the peer owning its key.
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
func (s *Server) simulate(ex *execution) outcome {
	if o, handled := s.forwardRemote(ex); handled {
		return o
	}
	spec := ex.spec
	cfg, err := spec.MachineConfig()
	if err != nil {
		return failed(err.Error(), 0, 0)
	}
	prog, err := spec.Program()
	if err != nil {
		return failed(err.Error(), 0, 0)
	}
	run := &simRun{ctx: ex.ctx, cfg: cfg, prog: prog, wallMS: spec.MaxWallMS, budget: spec.MaxCycles}
	if run.wallMS == 0 {
		run.wallMS = s.opt.MaxWallMS
	}
	if run.budget == 0 {
		run.budget = s.opt.MaxCycles
	}

	// The wall-clock deadline wraps the execution's cancellation context so
	// Cancel and drain still surface as "cancelled", while expiry surfaces
	// as a deadline. It is armed before the fault point so an injected
	// latency burns real wall budget, exactly like a stuck run.
	if run.wallMS > 0 {
		var cancel context.CancelFunc
		run.ctx, cancel = context.WithTimeout(ex.ctx, time.Duration(run.wallMS)*time.Millisecond)
		defer cancel()
	}
	if ferr := fpWorkerSimulate.Fire(); ferr != nil {
		ex.simSpan.Event("fault_injected", "point", fpWorkerSimulate.Name(), "error", ferr.Error())
		return failed(ferr.Error(), 0, 0)
	}
	if spec.Fidelity == api.FidelitySampled {
		return s.runSampled(ex, run)
	}
	return s.runFull(ex, run)
}

// runFull simulates the whole program in chunks of the event interval; each
// chunk boundary publishes one progress event, so /v1/jobs/{id}/events
// streams at the same cadence as specmpk-sim -stats-interval.
func (s *Server) runFull(ex *execution, run *simRun) outcome {
	m, err := pipeline.New(run.cfg, run.prog)
	if err != nil {
		return failed(err.Error(), 0, 0)
	}
	var prevCycle, prevInsts uint64
	for {
		next := min(m.Cycle()+s.opt.EventInterval, run.budget)
		runErr := m.RunContext(run.ctx, next)
		st := m.Stats
		switch {
		case runErr == nil, st.Stop == pipeline.StopFault:
			// Halt and fault are both terminal simulation outcomes; the
			// result records which via stopReason.
			return s.buildResult(ex, m)
		case st.Stop == pipeline.StopCancelled, st.Stop == pipeline.StopDeadline:
			return s.interrupted(ex, run, fmt.Sprintf("at cycle %d", st.Cycles), st.Cycles, st.Insts)
		case st.Stop == pipeline.StopCycleLimit:
			if m.Cycle() >= run.budget || m.Cycle() == prevCycle {
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
			return failed(runErr.Error(), st.Cycles, st.Insts)
		}
	}
}

// interrupted resolves a run its context cut short: cancellation (Cancel,
// drain) or else the wall-clock deadline, which fails the job. Neither
// outcome is ever cached. at says where the run was cut, for the error.
func (s *Server) interrupted(ex *execution, run *simRun, at string, cycle, insts uint64) outcome {
	if ex.ctx.Err() != nil {
		ex.setTrace(string(pipeline.StopCancelled), "")
		return outcome{state: api.StateCancelled, errMsg: context.Canceled.Error(), cycle: cycle, insts: insts}
	}
	s.jobsDeadline.Add(1)
	ex.setTrace(string(pipeline.StopDeadline), "")
	ex.simSpan.Event("deadline_exceeded", "wall_ms", run.wallMS, "cycle", cycle)
	return failed(fmt.Sprintf("deadline: wall-clock budget (%d ms) exceeded %s", run.wallMS, at), cycle, insts)
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
func (s *Server) forwardRemote(ex *execution) (o outcome, handled bool) {
	if s.fwd == nil || ex.forwarded || !s.fwd.Remote(ex.key) {
		return outcome{}, false
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
		return outcome{state: api.StateDone, result: packResult(out.Result), cycle: out.Cycles, insts: out.Insts}, true
	case errors.Is(err, ErrDegradeLocal):
		s.forwardDegraded.Add(1)
		ex.simSpan.Event("cluster_degraded_local", "error", err.Error())
		s.logger.Warn("cluster degraded to local simulation",
			"trace_id", ex.sc.Trace.String(), "key", ex.key, "err", err)
		return outcome{}, false
	case ex.ctx.Err() != nil:
		return outcome{state: api.StateCancelled, errMsg: ex.ctx.Err().Error()}, true
	default:
		// A terminal remote outcome (failed/cancelled job on the owner). The
		// spec is deterministic, so simulating locally would reproduce it —
		// adopt the failure instead of paying for the rerun.
		return failed(err.Error(), 0, 0), true
	}
}

// buildResult is a full run's result: the machine's final statistics and
// its whole metrics registry.
func (s *Server) buildResult(ex *execution, m *pipeline.Machine) outcome {
	st := m.Stats
	return s.marshalResult(ex, api.Result{
		StopReason: string(st.Stop),
		Stats:      st,
		Metrics:    m.StatsRegistry().Snapshot().Flat(),
	}, st.Cycles, st.Insts)
}

// marshalResult encodes res, stamped with the job's key, spec and the
// simulator version, into the canonical result bytes under a marshal span
// (the last lifecycle stage), and packs them for the job record and the
// cache. The encoding is deterministic (fixed struct field order, sorted map
// keys), so identical specs produce bit-identical result bytes — the
// property the content-addressed cache returns verbatim. cycle and insts
// are what the job simulated, which for a sampled job is not what res
// extrapolates.
func (s *Server) marshalResult(ex *execution, res api.Result, cycle, insts uint64) outcome {
	ex.setTrace(res.StopReason, "")
	msp := s.rec.StartSpanAt(ex.simSpan.Context(), "marshal", time.Now())
	// An injected marshal fault (error or drop alike) fails the job: a
	// result that cannot be encoded cannot be partially delivered.
	if ferr := fpResultMarshal.Fire(); ferr != nil {
		msp.Event("fault_injected", "point", fpResultMarshal.Name(), "error", ferr.Error())
		msp.SetError(ferr.Error())
		msp.End()
		return failed(fmt.Sprintf("marshal result: %v", ferr), cycle, insts)
	}
	res.Key, res.Version, res.Spec = ex.key, api.Version, ex.spec
	b, err := json.Marshal(res)
	if err != nil {
		msp.SetError(err.Error())
		msp.End()
		return failed(fmt.Sprintf("marshal result: %v", err), cycle, insts)
	}
	msp.SetAttr("bytes", len(b))
	msp.SetAttr("stop_reason", res.StopReason)
	msp.End()
	return outcome{state: api.StateDone, result: packResult(b), cycle: cycle, insts: insts}
}
