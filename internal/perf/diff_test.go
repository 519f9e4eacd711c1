package perf

import (
	"strings"
	"testing"
)

func bench(label string, metrics map[string]float64) *Bench {
	return &Bench{
		Meta: Meta{
			Schema: Schema, Label: label, GitSHA: "cafebabe",
			GoVersion: "go1.22", GOMAXPROCS: 8,
		},
		Metrics: metrics,
	}
}

func mustCompare(t *testing.T, before, after *Bench, thresholdPct float64) *Diff {
	t.Helper()
	d, err := Compare(before, after, thresholdPct)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCompareThresholdSemantics pins perfdiff's core contract: a metric
// regresses only when it moves in its *worse* direction by strictly more
// than the threshold, with direction inferred from the metric name.
func TestCompareThresholdSemantics(t *testing.T) {
	before := bench("base", map[string]float64{
		"sim.cycles_per_sec.w.m":     1000, // higher is better
		"sim.insts_per_sec.w.m":      500,  // higher is better
		"sim.allocs_per_kcycle.w.m":  10,   // lower is better
		"service.latency.e2e_p50_ms": 4,    // lower is better
		"service.jobs_per_sec.cold":  50,   // higher is better
	})
	after := bench("head", map[string]float64{
		"sim.cycles_per_sec.w.m":     800, // -20%: regression at threshold 10
		"sim.insts_per_sec.w.m":      550, // +10%: improvement, never a regression
		"sim.allocs_per_kcycle.w.m":  12,  // +20%: regression (lower is better)
		"service.latency.e2e_p50_ms": 3,   // -25%: improvement (lower is better)
		"service.jobs_per_sec.cold":  48,  // -4%: inside the threshold, fine
	})

	d := mustCompare(t, before, after, 10)
	want := map[string]struct{ reg, imp bool }{
		"sim.cycles_per_sec.w.m":     {true, false},
		"sim.insts_per_sec.w.m":      {false, false}, // +10% not strictly > 10%
		"sim.allocs_per_kcycle.w.m":  {true, false},
		"service.latency.e2e_p50_ms": {false, true},
		"service.jobs_per_sec.cold":  {false, false},
	}
	if len(d.Rows) != len(want) {
		t.Fatalf("rows %d, want %d", len(d.Rows), len(want))
	}
	for _, r := range d.Rows {
		w, ok := want[r.Metric]
		if !ok {
			t.Fatalf("unexpected row %q", r.Metric)
		}
		if r.Regression != w.reg || r.Improvement != w.imp {
			t.Errorf("%s: regression=%v improvement=%v, want %v/%v (delta %+.1f%%)",
				r.Metric, r.Regression, r.Improvement, w.reg, w.imp, r.DeltaPct)
		}
	}
	if got := len(d.Regressions()); got != 2 {
		t.Fatalf("Regressions() = %d, want 2", got)
	}

	// A generous threshold absorbs the same deltas — the CI noise guard.
	if reg := mustCompare(t, before, after, 50).Regressions(); len(reg) != 0 {
		t.Fatalf("threshold 50%% still flagged %d regressions", len(reg))
	}
}

func TestCompareHandlesMissingAndZeroMetrics(t *testing.T) {
	before := bench("base", map[string]float64{
		"sim.cycles_per_sec.gone.m": 100,
		"sim.cycles_per_sec.zero.m": 0, // incomparable: no relative delta
		"shared":                    1,
	})
	after := bench("head", map[string]float64{
		"sim.cycles_per_sec.zero.m": 42,
		"sim.cycles_per_sec.new.m":  7,
		"shared":                    1,
	})
	d := mustCompare(t, before, after, 10)
	if len(d.MissingInNew) != 1 || d.MissingInNew[0] != "sim.cycles_per_sec.gone.m" {
		t.Fatalf("MissingInNew %v", d.MissingInNew)
	}
	if len(d.NewOnly) != 1 || d.NewOnly[0].Metric != "sim.cycles_per_sec.new.m" || d.NewOnly[0].New != 7 {
		t.Fatalf("NewOnly %+v", d.NewOnly)
	}
	if len(d.Regressions()) != 0 {
		t.Fatalf("zero/missing metrics must not regress: %v", d.Regressions())
	}
}

func TestRenderMarksRegressionsAndVerdict(t *testing.T) {
	before := bench("base", map[string]float64{"sim.cycles_per_sec.w.m": 1000})
	after := bench("head", map[string]float64{"sim.cycles_per_sec.w.m": 500})
	var sb strings.Builder
	mustCompare(t, before, after, 10).Render(&sb)
	out := sb.String()
	for _, want := range []string{"REGRESSED", "FAIL: 1 metric(s) regressed", "-50.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var ok strings.Builder
	mustCompare(t, before, before, 10).Render(&ok)
	if !strings.Contains(ok.String(), "OK: no metric regressed") {
		t.Fatalf("clean diff verdict missing:\n%s", ok.String())
	}
}

func TestLowerIsBetterClassification(t *testing.T) {
	cases := map[string]bool{
		"sim.cycles_per_sec.a.b":     false,
		"sim.insts_per_sec.a.b":      false,
		"service.jobs_per_sec.cold":  false,
		"sim.allocs_per_kcycle.a.b":  true,
		"service.latency.e2e_p50_ms": true,
		"service.latency.sim_p99_ms": true,
	}
	for name, want := range cases {
		if got := LowerIsBetter(name); got != want {
			t.Errorf("LowerIsBetter(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestCompareRefusesIncomparableCaptures: captures under a different
// simulator version, cycle budget, service job count or GOMAXPROCS are
// different experiments; Compare refuses them and names the mismatch.
func TestCompareRefusesIncomparableCaptures(t *testing.T) {
	m := map[string]float64{"sim.cycles_per_sec.w.m": 1000}
	for _, tc := range []struct {
		knob   string
		mutate func(*Meta)
	}{
		{"simVersion", func(m *Meta) { m.SimVersion = "specmpk-sim/2" }},
		{"cycleBudget", func(m *Meta) { m.CycleBudget = 2_000_000 }},
		{"serviceJobs", func(m *Meta) { m.ServiceJobs = 32 }},
		{"gomaxprocs", func(m *Meta) { m.GOMAXPROCS = 1 }},
	} {
		after := bench("head", m)
		tc.mutate(&after.Meta)
		d, err := Compare(bench("base", m), after, 10)
		if err == nil || d != nil {
			t.Fatalf("%s mismatch: diff=%v err=%v, want a refusal", tc.knob, d, err)
		}
		if msg := err.Error(); strings.Count(msg, " vs ") != 1 || !strings.Contains(msg, tc.knob+" ") {
			t.Fatalf("%s mismatch reported as %q", tc.knob, msg)
		}
	}
}

// TestComparePR8vsPR9Refused: the committed captures on either side of the
// sampled-fidelity change differ in simulator version, cycle budget and
// service job count, so diffing them must be refused.
func TestComparePR8vsPR9Refused(t *testing.T) {
	old, err := Load("../../BENCH_pr8.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Load("../../BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compare(old, cur, 50); err == nil || strings.Count(err.Error(), " vs ") != 3 {
		t.Fatalf("err = %v, want three knob mismatches", err)
	}
}

// TestRenderNotesHostAndNewMetricValues: an unrecorded CPU model is an
// unknown host, not a match; a metric only the new capture has renders its
// value.
func TestRenderNotesHostAndNewMetricValues(t *testing.T) {
	before := bench("base", map[string]float64{"shared": 1})
	after := bench("head", map[string]float64{"shared": 1, "service.jobs_per_sec.new": 12.5})
	after.Meta.CPUModel = "Intel(R) Xeon(R) Processor @ 2.10GHz"
	var sb strings.Builder
	mustCompare(t, before, after, 10).Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "unknown host") {
		t.Fatalf("missing CPU model not reported as unknown host:\n%s", out)
	}
	var row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "service.jobs_per_sec.new") {
			row = line
		}
	}
	if !strings.Contains(row, "12.5") || !strings.Contains(row, "new metric") {
		t.Fatalf("new-only metric row %q, want its value", row)
	}

	before.Meta.CPUModel = after.Meta.CPUModel
	sb.Reset()
	mustCompare(t, before, after, 10).Render(&sb)
	if strings.Contains(sb.String(), "note:") {
		t.Fatalf("same host and toolchain still noted:\n%s", sb.String())
	}
}
