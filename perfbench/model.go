package main

import (
	"math"

	"specmpk/internal/server/api"
)

// modelMetrics sets the model.* metrics: simulated, not host, figures read
// from the answers. They are taken over the model subset of jobs (the first
// sweep pass, or an open loop's whole schedule), each distinct spec once and
// in job order, so one seed always gives identical values.
func modelMetrics(r *report, samples []*sample, parsed map[string]*api.Result) {
	var cycles, insts, branches, mispredicts uint64
	var cpi [5]uint64
	var miss, access [3]float64
	type cell struct{ sampled, full float64 }
	trio := make(map[string]map[string]cell) // workload -> mode -> CPIs
	var order []string
	var errPct []float64
	outside := 0
	seen := make(map[string]bool)
	for _, s := range samples {
		res := parsed[s.info.Key]
		if !s.j.model || res == nil || seen[s.info.Key] {
			continue
		}
		seen[s.info.Key] = true
		st := res.Stats
		cycles += st.Cycles
		insts += st.Insts
		branches += st.Branches
		mispredicts += st.Mispredicts
		c := st.CPI
		for i, v := range []uint64{c.Serialize, c.PkruFull, c.Memory, c.SquashRecovery, c.Frontend} {
			cpi[i] += v
		}
		for i, pfx := range []string{"cache.l1d.", "cache.l2.", "tlb.dtlb."} {
			m, h := num(res.Metrics[pfx+"misses"]), num(res.Metrics[pfx+"hits"])
			miss[i] += m
			access[i] += m + h
		}
		if sr := res.Sampled; sr != nil {
			full := s.j.want.fullCPI
			errPct = append(errPct, 100*math.Abs(sr.CPI-full)/full)
			if outsideBound(res, s.j.want) != "" {
				outside++
			}
			w := s.j.spec.Workload
			if trio[w] == nil {
				trio[w] = make(map[string]cell)
				order = append(order, w)
			}
			trio[w][s.j.spec.Mode] = cell{sampled: sr.CPI, full: full}
		}
	}
	r.set("model.cycles", float64(cycles), "cycles")
	r.set("model.insts", float64(insts), "insts")
	for i, name := range []string{"serialize", "rob_pkru_full", "memory", "squash_recovery", "frontend"} {
		r.set("model.cpi."+name+"_share", ratio(float64(cpi[i]), float64(cycles)), "ratio")
	}
	for i, name := range []string{"l1d", "l2", "dtlb"} {
		r.set("model."+name+".miss_rate", ratio(miss[i], access[i]), "ratio")
	}
	r.set("model.bpred.mispredict_rate", ratio(float64(mispredicts), float64(branches)), "ratio")

	// Sampled accuracy: per-cell CPI error, and the error in the paper's
	// headline gap, SpecMPK's overhead minus the serialized machine's, both
	// over the insecure baseline.
	var gapErr []float64
	for _, w := range order {
		m := trio[w]
		ser, spec, ns := m["serialized"], m["specmpk"], m["nonsecure"]
		if ns.full == 0 || ns.sampled == 0 || ser.full == 0 || spec.full == 0 {
			continue
		}
		gs := 100 * (spec.sampled - ser.sampled) / ns.sampled
		gf := 100 * (spec.full - ser.full) / ns.full
		gapErr = append(gapErr, math.Abs(gs-gf))
	}
	r.set("model.sampled_cpi_err_pct", mean(errPct), "%")
	r.set("model.sampled_gap_err_pp", mean(gapErr), "pp")
	r.set("model.sampled_outside_bound", float64(outside), "count")
}

// num reads a metric from a decoded result's metrics map.
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}
