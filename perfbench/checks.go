package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"specmpk/internal/server/api"
)

// checker verifies every answer and keeps the first reply per key, which
// later replies for the key must repeat byte for byte.
type checker struct {
	first  map[string][]byte
	parsed map[string]*api.Result
	failed int
	// errs and outside keep, for the report, the first few failures and
	// the first few sampled answers outside their error bound.
	errs, outside []string
}

func newChecker() *checker {
	return &checker{first: make(map[string][]byte), parsed: make(map[string]*api.Result)}
}

func (c *checker) fail(s *sample, format string, args ...any) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, s.label()+fmt.Sprintf(format, args...))
	}
}

func (s *sample) label() string {
	return fmt.Sprintf("job %d (%s seed %d %s): ", s.idx, s.j.spec.Workload, s.j.spec.Seed, s.j.spec.Mode)
}

// check verifies one answer. Samples must be checked in a fixed order (job
// index) so that which reply counts as a key's first does not depend on
// timing.
func (c *checker) check(s *sample) {
	switch {
	case s.err != nil:
		c.fail(s, "%v", s.err)
		return
	case s.info.State != api.StateDone:
		c.fail(s, "state %s: %s", s.info.State, s.info.Error)
		return
	}
	if s.info.Key != s.j.want.key {
		c.fail(s, "daemon keyed the spec %s, api.JobSpec.Key gives %s", s.info.Key, s.j.want.key)
		return
	}
	if prev, ok := c.first[s.info.Key]; ok {
		if !bytes.Equal(prev, s.info.Result) {
			c.fail(s, "reply differs from the first reply for key %s (cached=%v deduped=%v)",
				s.info.Key, s.info.Cached, s.info.Deduped)
		}
		return
	}
	c.first[s.info.Key] = s.info.Result
	var res api.Result
	if err := json.Unmarshal(s.info.Result, &res); err != nil {
		c.fail(s, "result: %v", err)
		return
	}
	if msg := verify(&res, s.info.Key, s.j.want); msg != "" {
		c.fail(s, "%s", msg)
		return
	}
	c.parsed[s.info.Key] = &res
	if msg := outsideBound(&res, s.j.want); msg != "" && len(c.outside) < 10 {
		c.outside = append(c.outside, s.label()+msg)
	}
}

// outsideBound reports a sampled answer whose own error bound does not
// contain the full-fidelity CPI of the same spec. This is counted as
// model.sampled_outside_bound, not as a failed job: on the current
// simulator a few percent of seeded programs miss their bound (see
// README.md), and the sampled-fidelity work is expected to drive the count
// to zero.
func outsideBound(res *api.Result, want expect) string {
	sr := res.Sampled
	if sr == nil {
		return ""
	}
	if d := math.Abs(sr.CPI - want.fullCPI); d > sr.ErrorBound*sr.CPI {
		return fmt.Sprintf("sampled CPI %.4f is %.1f%% from full-fidelity CPI %.4f, outside its bound ±%.1f%%",
			sr.CPI, 100*d/sr.CPI, want.fullCPI, 100*sr.ErrorBound)
	}
	return ""
}

// verify checks one parsed result against what its job must produce; it
// returns "" when the result is correct.
func verify(res *api.Result, key string, want expect) string {
	st := res.Stats
	switch {
	case res.Key != key:
		return fmt.Sprintf("result key %s, job key %s", res.Key, key)
	case res.StopReason != want.stop:
		return fmt.Sprintf("stop reason %q, want %q", res.StopReason, want.stop)
	case want.insts != 0 && st.Insts != want.insts:
		return fmt.Sprintf("%d instructions, reference run retired %d", st.Insts, want.insts)
	case want.budget != 0 && st.Cycles != want.budget:
		return fmt.Sprintf("stopped at cycle %d, budget %d", st.Cycles, want.budget)
	}
	if res.StopReason == api.StopSampled {
		if res.Sampled == nil {
			return "sampled answer without a sampled section"
		}
		return ""
	}
	if sum := st.CPI.Sum(); sum != st.Cycles {
		return fmt.Sprintf("CPI stack sums to %d cycles, run took %d", sum, st.Cycles)
	}
	return ""
}
