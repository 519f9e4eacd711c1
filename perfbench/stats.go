package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result: the last line of its standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricName is the grammar every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func (r *report) set(name string, v float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("metric name %q breaks the grammar", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// write prints every metric by name as a table, then the report as one JSON
// line.
func (r *report) write(w io.Writer, notes []string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile (0 < q <= 1) of sorted values by the
// nearest-rank rule; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLevels are the percentiles a tail may be reported at.
var tailLevels = []float64{50, 90, 99, 99.9}

// tail returns the highest percentile of tailLevels that leaves at least ten
// samples beyond it, and its value. Below 20 samples no percentile qualifies
// and the median is reported.
func tail(sorted []float64) (pct, value float64) {
	pct = tailLevels[0]
	for _, p := range tailLevels {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if len(sorted)-rank >= 10 {
			pct = p
		}
	}
	return pct, quantile(sorted, pct/100)
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
