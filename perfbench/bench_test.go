package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/server/api"
)

// runServiceMixed drives one short service-mixed phase and returns its
// samples, checked, with the model metrics computed over them.
func runServiceMixed(t *testing.T, seed int64, run time.Duration) (*phase, *checker, map[string]metric) {
	t.Helper()
	d, in, err := setup(options{workload: "service-mixed", seed: seed, run: run}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(d, in, run, nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker()
	for _, s := range p.samples {
		ck.check(s)
	}
	if ck.failed != 0 {
		t.Fatalf("%d jobs failed their checks: %v", ck.failed, ck.errs)
	}
	r := &report{Metrics: make(map[string]metric)}
	modelMetrics(r, p.samples, ck.parsed)
	return p, ck, r.Metrics
}

func TestModelMetricsRepeatPerSeed(t *testing.T) {
	_, _, a := runServiceMixed(t, 1, time.Second)
	_, _, b := runServiceMixed(t, 1, time.Second)
	_, _, c := runServiceMixed(t, 2, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("model.* differ between two runs of seed 1:\n%v\n%v", a, b)
	}
	if a["model.cycles"] == c["model.cycles"] && a["model.insts"] == c["model.insts"] {
		t.Errorf("seeds 1 and 2 gave the same model figures: %v", a)
	}
	if a["model.insts"].Value == 0 {
		t.Errorf("model.insts is 0")
	}
}

func TestSweepInputsFollowSeed(t *testing.T) {
	refs, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	specs := func(seed int64) []api.JobSpec {
		jobs, err := sweepPass(seed, 0, paperTrio, true, refs)
		if err != nil {
			t.Fatal(err)
		}
		var out []api.JobSpec
		for _, j := range jobs {
			out = append(out, j.spec)
		}
		return out
	}
	if !reflect.DeepEqual(specs(7), specs(7)) {
		t.Error("one seed gave two different sweeps")
	}
	if reflect.DeepEqual(specs(7), specs(8)) {
		t.Error("seeds 7 and 8 gave the same sweep")
	}
}

// TestOpenLoopStallStaysInSamples stalls every simulation for a window and
// checks that the requests queued behind the stall keep it: their latency
// counts from when they were due, and the generator reports its lag.
func TestOpenLoopStallStaysInSamples(t *testing.T) {
	const rate, n = 100, 150
	const stall = 300 * time.Millisecond
	schedule := func(seed int64) []*job {
		var jobs []*job
		for i := 0; i < n; i++ {
			spec := api.JobSpec{Workload: "541.leela_r", Seed: int64(i) + 1 + seed*1000, Mode: "specmpk", MaxCycles: 2000}
			jobs = append(jobs, &job{spec: spec, due: time.Duration(i) * time.Second / rate,
				want: expect{stop: "cycle_limit", budget: 2000}})
		}
		if err := setKeys(jobs); err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	drive := func(jobs []*job, armed bool) (tailMS, lagP99MS float64) {
		d, err := startDaemon(0)
		if err != nil {
			t.Fatal(err)
		}
		if armed {
			time.AfterFunc(500*time.Millisecond, func() {
				if err := faults.Arm(faults.Plan{Rules: []faults.Rule{{
					Point: "server.worker.simulate", Action: faults.ActionLatency, DelayMS: int(stall / time.Millisecond),
				}}}); err != nil {
					t.Error(err)
				}
			})
			time.AfterFunc(600*time.Millisecond, faults.Disarm)
			t.Cleanup(faults.Disarm)
		}
		p, err := runPhase(d, &inputs{open: jobs}, 0, nil)
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(p.counted) != n {
			t.Fatalf("%d of %d requests in the samples", len(p.counted), n)
		}
		ck := newChecker()
		var lat, lag []time.Duration
		for _, s := range p.samples {
			ck.check(s)
			lat = append(lat, s.latency())
			lag = append(lag, s.lag())
		}
		if ck.failed != 0 {
			t.Fatalf("checks failed: %v", ck.errs)
		}
		_, tailMS = tail(msSorted(lat))
		return tailMS, quantile(msSorted(lag), 0.99)
	}
	calmTail, _ := drive(schedule(1), false)
	stallTail, stallLag := drive(schedule(2), true)
	if stallTail < ms(stall)/2 || stallTail < 2*calmTail {
		t.Errorf("job tail %.1f ms with a %v stall (%.1f ms without): the stall vanished from the samples",
			stallTail, stall, calmTail)
	}
	if stallLag < ms(stall)/2 {
		t.Errorf("generator lag p99 %.1f ms with a %v stall", stallLag, stall)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 90, 900},  // nine beyond p99: fall back to p90
		{100, 90, 90},
		{99, 50, 50},
		{10, 50, 5}, // too few for any tail: the median
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("tail of %d samples = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.want)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"job_p50_ms", "server.queue_wait_ms.p99", "pipeline.self_share.new", "a-b"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "job p50", "job/p50", "_lead", ".lead", "ms{x}"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestTracedRunPrintsDeclaredMetrics runs a short traced service-mixed run
// and compares its metrics with the per-layer list BENCHMARK.json declares.
func TestTracedRunPrintsDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(list []declared) []string {
		var out []string
		for _, m := range list {
			if !metricName.MatchString(m.Name) {
				t.Errorf("declared metric %q breaks the grammar", m.Name)
			}
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	printed := func(trace bool) []string {
		r, notes, err := run(options{workload: "service-mixed", seed: 1, run: time.Second, trace: trace, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Fatalf("run not correct: %v", notes)
		}
		var out []string
		for n, m := range r.Metrics {
			out = append(out, n+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := printed(true), names(decl.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run prints %v\nBENCHMARK.json declares %v", got, want)
	}
	if got, want := printed(false), names(decl.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end run prints %v\nBENCHMARK.json declares %v", got, want)
	}
}

func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "specmpk/internal/pipeline.(*Machine).issueStage", "specmpk/internal/pipeline.(*Machine).Step"}, "issue"},
		{[]string{"specmpk/internal/cache.(*Cache).access", "specmpk/internal/pipeline.(*Machine).commitStore"}, "cache"},
		{[]string{"specmpk/internal/pipeline.specMPKPolicy.LoadIssueGate", "specmpk/internal/pipeline.(*Machine).issueStage"}, "policy"},
		{[]string{"specmpk/internal/cache.New", "specmpk/internal/pipeline.New"}, "new"},
		{[]string{"specmpk/internal/pipeline.(*Machine).Step", "specmpk/internal/pipeline.(*Machine).stepFast"}, "step"},
		{[]string{"specmpk/internal/pipeline.(*Machine).skipIdle"}, "fastforward"},
		{[]string{"specmpk/internal/funcsim.(*Machine).Step", "specmpk/internal/simpoint.Profile"}, "funcsim"},
		{[]string{"encoding/json.Marshal", "specmpk/internal/server.(*Server).buildResult"}, "other"},
	} {
		if got := foldStack(tc.stack); got != tc.want {
			t.Errorf("foldStack(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestReferenceTableCurrent re-simulates a few reference cells: a simulator
// change that moves results must come with a regenerated table.
func TestReferenceTableCurrent(t *testing.T) {
	refs, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(refs.Cells) / 2, len(refs.Cells) - 1} {
		want := refs.Cells[i]
		got, err := simulateFull(want.Workload, want.Seed, want.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("reference cell %+v, simulator now gives %+v: run -write-reference", want, got)
		}
	}
}
