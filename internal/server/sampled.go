// Sampled-fidelity execution: the server-side SimPoint path.
//
// A sampled job profiles its program once (the plan — chosen representative
// intervals plus a restorable checkpoint at each — is cached
// content-addressed by api.JobSpec.ProfileKey, so a policy sweep over one
// workload profiles it exactly once), fans the representative intervals out
// as sub-jobs across the same worker pool full jobs run on, and recombines
// the per-interval statistics into an extrapolated whole-program result with
// an error bound.
//
// The fan-out is deadlock-free by construction: every interval task is
// OFFERED to the shared sub-job queue (idle workers steal them), and the
// owning worker then claim-runs whatever nobody picked up. The claim is a
// CAS, so each task runs exactly once, progress is guaranteed with any pool
// size (a 1-worker server simply runs every interval inline), and no worker
// ever blocks waiting for another worker to free up.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
)

// intervalTask is one representative interval's detailed simulation, offered
// to the worker pool. Whoever wins the claim CAS runs it — an idle worker
// (stolen) or the owning worker's inline sweep.
type intervalTask struct {
	claimed atomic.Bool
	run     func(stolen bool)
}

func (t *intervalTask) claim() bool { return t.claimed.CompareAndSwap(false, true) }

// runSampled executes one sampled-fidelity job end to end on the owning
// worker: resolve the plan (cached), fan the intervals out, recombine, and
// optionally audit against a full-fidelity run. It is the sampled
// counterpart of (*Server).runFull.
func (s *Server) runSampled(ex *execution, run *simRun) outcome {
	spec, ctx, cfg, prog := ex.spec, run.ctx, run.cfg, run.prog
	pkey, err := spec.ProfileKey()
	if err != nil {
		return failed(err.Error(), 0, 0)
	}

	// Profile once per program. The plan depends only on the program and the
	// profiling parameters — not the mode or machine config — so a sweep's
	// later jobs hit the cache here.
	pt0 := time.Now()
	psp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.profile", pt0)
	psp.SetAttr("profile_key", pkey)
	plan, cached, err := s.profiles.get(pkey, func() (*simpoint.Plan, error) {
		return simpoint.BuildPlan(prog, spec.Sampled.SimPointConfig())
	})
	pd := time.Since(pt0)
	if err != nil {
		psp.SetError(err.Error())
		psp.EndAt(pt0.Add(pd))
		return failed(fmt.Sprintf("sampled profile: %v", err), 0, 0)
	}
	psp.SetAttr("cached", cached)
	psp.SetAttr("points", len(plan.Points))
	psp.SetAttr("intervals", plan.Intervals)
	psp.EndAt(pt0.Add(pd))

	// Fan the representative intervals out across the pool.
	n := len(plan.Points)
	istats := make([]pipeline.Stats, n)
	ierrs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	tasks := make([]*intervalTask, n)
	for i := range tasks {
		i := i
		tasks[i] = &intervalTask{run: func(stolen bool) {
			defer wg.Done()
			s.sampledIntervals.Add(1)
			if stolen {
				s.sampledStolen.Add(1)
			}
			it0 := time.Now()
			isp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.interval", it0)
			isp.SetAttr("index", plan.Points[i].Interval.Index)
			isp.SetAttr("weight", plan.Points[i].Weight)
			isp.SetAttr("stolen", stolen)
			if cerr := ctx.Err(); cerr != nil {
				ierrs[i] = cerr
				isp.SetError(cerr.Error())
				isp.EndAt(it0.Add(time.Since(it0)))
				return
			}
			st, serr := plan.SimulatePoint(i, cfg, prog)
			istats[i], ierrs[i] = st, serr
			d := time.Since(it0)
			isp.SetAttr("cycles", st.Cycles)
			isp.SetAttr("insts", st.Insts)
			if serr != nil {
				isp.SetError(serr.Error())
			}
			isp.EndAt(it0.Add(d))
		}}
	}
	for _, t := range tasks {
		select {
		case s.subq <- t:
		default: // sub-queue full; the inline sweep below covers it
		}
	}
	for _, t := range tasks {
		if t.claim() {
			t.run(false)
		}
	}
	wg.Wait()

	var cycle, insts uint64
	for i := range istats {
		cycle += istats[i].Cycles
		insts += istats[i].Insts
	}
	for i, ierr := range ierrs {
		if ierr == nil {
			continue
		}
		if ctx.Err() != nil {
			return s.interrupted(ex, run, "during sampled run", cycle, insts)
		}
		return failed(fmt.Sprintf("sampled interval %d: %v", plan.Points[i].Interval.Index, ierr), cycle, insts)
	}

	est, err := plan.Estimate(istats)
	if err != nil {
		return failed(err.Error(), cycle, insts)
	}

	var audit *auditRun
	if spec.Sampled.Audit {
		audit, err = s.runAudit(ex, run)
		if err != nil {
			if ctx.Err() != nil {
				return s.interrupted(ex, run, "during sampled run", cycle, insts)
			}
			return failed(fmt.Sprintf("sampled audit: %v", err), cycle, insts)
		}
		cycle += audit.stats.Cycles
		insts += audit.stats.Insts
	}
	ex.progress(cycle, insts, est.IPC)
	s.sampledJobs.Add(1)
	return s.marshalResult(ex, buildSampledResult(spec, plan, est, istats, pkey, audit), cycle, insts)
}

// auditRun is the optional full-fidelity comparison run's outcome.
type auditRun struct {
	stats pipeline.Stats
	cpi   float64
}

// runAudit runs the program at full fidelity under the same machine config —
// the measured truth a sampled estimate is validated against. Halt, fault
// and cycle-budget exhaustion are all measured outcomes (the same taxonomy
// full jobs cache); cancellation and deadline expiry are errors for the
// caller to map.
func (s *Server) runAudit(ex *execution, run *simRun) (*auditRun, error) {
	at0 := time.Now()
	asp := s.rec.StartSpanAt(ex.simSpan.Context(), "sampled.audit", at0)
	finish := func(err error) error {
		if err != nil {
			asp.SetError(err.Error())
		}
		asp.EndAt(at0.Add(time.Since(at0)))
		return err
	}
	m, err := pipeline.New(run.cfg, run.prog)
	if err != nil {
		return nil, finish(err)
	}
	runErr := m.RunContext(run.ctx, run.budget)
	st := m.Stats
	asp.SetAttr("cycles", st.Cycles)
	asp.SetAttr("insts", st.Insts)
	asp.SetAttr("stop_reason", string(st.Stop))
	switch {
	case runErr == nil, st.Stop == pipeline.StopFault, st.Stop == pipeline.StopCycleLimit:
	default:
		return nil, finish(runErr)
	}
	if st.Insts == 0 {
		return nil, finish(fmt.Errorf("audit run retired no instructions"))
	}
	finish(nil)
	return &auditRun{stats: st, cpi: float64(st.Cycles) / float64(st.Insts)}, nil
}

// buildSampledResult is a sampled run's result: the extrapolation into a
// whole-program view, the per-interval measurements behind it, and the
// audit when one ran. Everything inside is a pure function of the spec —
// estimates, weights, interval measurements — so sampled results are as
// byte-reproducible and cacheable as full ones. Deliberately absent: whether
// the profile came from the cache (that lives in spans and server metrics;
// result bytes must not depend on cache temperature).
func buildSampledResult(spec api.JobSpec, plan *simpoint.Plan, est simpoint.Estimate, istats []pipeline.Stats, pkey string, audit *auditRun) api.Result {
	points := make([]api.SampledPoint, len(plan.Points))
	for idx, pt := range plan.Points {
		points[idx] = api.SampledPoint{
			Index:  pt.Interval.Index,
			Weight: pt.Weight,
			Cycles: istats[idx].Cycles,
			Insts:  istats[idx].Insts,
			CPI:    float64(istats[idx].Cycles) / float64(istats[idx].Insts),
		}
	}
	sr := &api.SampledResult{
		Params:          *spec.Sampled,
		ProfileKey:      pkey,
		Intervals:       plan.Intervals,
		TotalInsts:      plan.TotalInsts,
		Points:          points,
		CPI:             est.CPI,
		IPC:             est.IPC,
		EstimatedCycles: est.Cycles,
		ErrorBound:      est.ErrorBound,
	}
	metrics := map[string]any{
		"sampled.cpi":              est.CPI,
		"sampled.ipc":              est.IPC,
		"sampled.error_bound":      est.ErrorBound,
		"sampled.estimated_cycles": float64(est.Cycles),
		"sampled.total_insts":      float64(plan.TotalInsts),
		"sampled.intervals":        float64(plan.Intervals),
		"sampled.points":           float64(len(plan.Points)),
		"sampled.interval_len":     float64(spec.Sampled.IntervalLen),
	}
	if audit != nil {
		sr.AuditCPI = audit.cpi
		sr.AuditErr = (est.CPI - audit.cpi) / audit.cpi
		sr.AuditStopReason = string(audit.stats.Stop)
		metrics["sampled.audit_cpi"] = audit.cpi
		metrics["sampled.audit_err"] = sr.AuditErr
	}
	return api.Result{
		StopReason: api.StopSampled,
		// The extrapolated whole-program view: what a full run of the
		// profiled execution is predicted to cost.
		Stats: pipeline.Stats{
			Cycles: est.Cycles,
			Insts:  plan.TotalInsts,
			Stop:   pipeline.StopReason(api.StopSampled),
		},
		Metrics: metrics,
		Sampled: sr,
	}
}
