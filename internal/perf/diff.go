package perf

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// DiffRow compares one metric across two captures.
type DiffRow struct {
	Metric string
	Old    float64
	New    float64
	// DeltaPct is the signed relative change, (new-old)/old*100.
	DeltaPct float64
	// LowerIsBetter is the metric's direction (from its name: allocation
	// and latency metrics improve downward, throughput upward).
	LowerIsBetter bool
	// Regression: the metric moved in the worse direction by more than the
	// threshold.
	Regression bool
	// Improvement: moved in the better direction by more than the threshold.
	Improvement bool
}

// Diff is the comparison of two captures at a regression threshold.
type Diff struct {
	Old, New     Meta
	ThresholdPct float64
	// Rows covers every metric present in both captures, sorted by name.
	Rows []DiffRow
	// MissingInNew lists metrics only the old capture has (a changed
	// workload set, a renamed metric); NewOnly holds the metrics only the
	// new capture has, with their values. Not regressions, but printed so a
	// silently shrunk capture can't masquerade as a clean diff.
	MissingInNew []string
	NewOnly      []DiffRow
}

// checkComparable refuses two captures taken under different knobs: a
// different simulator version, cycle budget, service job count or
// GOMAXPROCS makes them different experiments, so their deltas would
// measure the knobs, not the code.
func checkComparable(old, cur Meta) error {
	var mm []string
	check := func(knob string, a, b any) {
		if a != b {
			mm = append(mm, fmt.Sprintf("%s %v vs %v", knob, a, b))
		}
	}
	check("simVersion", old.SimVersion, cur.SimVersion)
	check("cycleBudget", old.CycleBudget, cur.CycleBudget)
	check("serviceJobs", old.ServiceJobs, cur.ServiceJobs)
	check("gomaxprocs", old.GOMAXPROCS, cur.GOMAXPROCS)
	if mm != nil {
		return fmt.Errorf("captures are not comparable: %s", strings.Join(mm, "; "))
	}
	return nil
}

// LowerIsBetter classifies a metric's direction from its name: allocation
// pressure (allocs_per_*) and latencies (*_ms) improve downward; throughput
// (everything else: *_per_sec) improves upward.
func LowerIsBetter(metric string) bool {
	return strings.Contains(metric, "allocs_per") || strings.HasSuffix(metric, "_ms")
}

// Compare diffs two captures metric-by-metric. A metric regresses when it
// moves in its worse direction by strictly more than thresholdPct percent.
// Metrics at old == 0 are incomparable (no relative delta) and never
// regress; they still appear in Rows with DeltaPct 0. Captures taken under
// different knobs are refused with an error naming each differing knob.
func Compare(before, after *Bench, thresholdPct float64) (*Diff, error) {
	if err := checkComparable(before.Meta, after.Meta); err != nil {
		return nil, err
	}
	d := &Diff{Old: before.Meta, New: after.Meta, ThresholdPct: thresholdPct}
	for _, name := range before.MetricNames() {
		ov := before.Metrics[name]
		nv, ok := after.Metrics[name]
		if !ok {
			d.MissingInNew = append(d.MissingInNew, name)
			continue
		}
		row := DiffRow{Metric: name, Old: ov, New: nv, LowerIsBetter: LowerIsBetter(name)}
		if ov != 0 {
			row.DeltaPct = (nv - ov) / ov * 100
			worse := row.DeltaPct < -thresholdPct // higher-is-better default
			better := row.DeltaPct > thresholdPct
			if row.LowerIsBetter {
				worse, better = better, worse
			}
			row.Regression = worse
			row.Improvement = better
		}
		d.Rows = append(d.Rows, row)
	}
	for _, name := range after.MetricNames() {
		if _, ok := before.Metrics[name]; !ok {
			d.NewOnly = append(d.NewOnly, DiffRow{Metric: name, New: after.Metrics[name]})
		}
	}
	sort.Strings(d.MissingInNew)
	return d, nil
}

// Regressions returns the regressed rows.
func (d *Diff) Regressions() []DiffRow {
	var out []DiffRow
	for _, r := range d.Rows {
		if r.Regression {
			out = append(out, r)
		}
	}
	return out
}

// Render prints the diff as an aligned table with a verdict line. The caller
// (specmpk-bench perfdiff) exits non-zero when Regressions() is non-empty.
func (d *Diff) Render(w io.Writer) {
	fmt.Fprintf(w, "perfdiff: %s (%s) -> %s (%s), threshold %.1f%%\n",
		d.Old.Label, short(d.Old.GitSHA), d.New.Label, short(d.New.GitSHA), d.ThresholdPct)
	if d.Old.GoVersion != d.New.GoVersion {
		fmt.Fprintf(w, "note: Go toolchains differ (%s vs %s) — deltas include the compiler\n",
			d.Old.GoVersion, d.New.GoVersion)
	}
	switch {
	case d.Old.CPUModel == "" || d.New.CPUModel == "":
		fmt.Fprintf(w, "note: unknown host — a capture has no CPU model (%q vs %q), so same hardware is unrecorded\n",
			d.Old.CPUModel, d.New.CPUModel)
	case d.Old.CPUModel != d.New.CPUModel:
		fmt.Fprintf(w, "note: captures ran on different CPUs (%q vs %q) — deltas include the hardware\n",
			d.Old.CPUModel, d.New.CPUModel)
	}
	nameW := len("metric")
	for _, r := range d.Rows {
		if len(r.Metric) > nameW {
			nameW = len(r.Metric)
		}
	}
	fmt.Fprintf(w, "%-*s %14s %14s %9s\n", nameW, "metric", "old", "new", "delta")
	for _, r := range d.Rows {
		mark := ""
		switch {
		case r.Regression:
			mark = "  REGRESSED"
		case r.Improvement:
			mark = "  improved"
		}
		fmt.Fprintf(w, "%-*s %14.4g %14.4g %+8.1f%%%s\n", nameW, r.Metric, r.Old, r.New, r.DeltaPct, mark)
	}
	for _, name := range d.MissingInNew {
		fmt.Fprintf(w, "%-*s %14s %14s %9s  MISSING in new capture\n", nameW, name, "-", "-", "")
	}
	for _, r := range d.NewOnly {
		fmt.Fprintf(w, "%-*s %14s %14.4g %9s  new metric\n", nameW, r.Metric, "-", r.New, "")
	}
	if reg := d.Regressions(); len(reg) > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed beyond %.1f%%\n", len(reg), d.ThresholdPct)
	} else {
		fmt.Fprintf(w, "OK: no metric regressed beyond %.1f%%\n", d.ThresholdPct)
	}
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
