package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"

	"specmpk/internal/otrace"
)

// spanDur is a span's duration.
func spanDur(s otrace.SpanData) time.Duration { return s.End.Sub(s.Start) }

// spanIndex groups one traced phase's spans for the per-layer metrics.
type spanIndex struct {
	byName   map[string][]otrace.SpanData
	children map[string][]otrace.SpanData // parent span ID -> children
	// byTrace maps a trace ID to its spans of each name; every job is its
	// own trace, rooted at the benchmark's client.job span.
	byTrace map[string]map[string]otrace.SpanData
}

func indexSpans(spans []otrace.SpanData) *spanIndex {
	ix := &spanIndex{
		byName:   make(map[string][]otrace.SpanData),
		children: make(map[string][]otrace.SpanData),
		byTrace:  make(map[string]map[string]otrace.SpanData),
	}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.ParentID != "" {
			ix.children[s.ParentID] = append(ix.children[s.ParentID], s)
		}
		t := ix.byTrace[s.TraceID]
		if t == nil {
			t = make(map[string]otrace.SpanData)
			ix.byTrace[s.TraceID] = t
		}
		t[s.Name] = s
	}
	return ix
}

// durations returns the sorted durations (ms) of every span with this name.
func (ix *spanIndex) durations(name string) []float64 {
	var ds []time.Duration
	for _, s := range ix.byName[name] {
		ds = append(ds, spanDur(s))
	}
	return msSorted(ds)
}

// profileBuilds returns the sorted durations (ms) of the sampled.profile
// spans that built a profile rather than finding it cached.
func (ix *spanIndex) profileBuilds() []float64 {
	var ds []time.Duration
	for _, s := range ix.byName["sampled.profile"] {
		if s.Attrs["cached"] == false {
			ds = append(ds, spanDur(s))
		}
	}
	return msSorted(ds)
}

// check verifies the trace's shape: one daemon job span and one client.job
// span per job sent, and every child of a job span inside it.
func (ix *spanIndex) check(sent int) []string {
	var bad []string
	if n := len(ix.byName["job"]); n != sent {
		bad = append(bad, fmt.Sprintf("daemon recorded %d job spans for %d jobs sent", n, sent))
	}
	if n := len(ix.byName["client.job"]); n != sent {
		bad = append(bad, fmt.Sprintf("benchmark recorded %d client.job spans for %d jobs sent", n, sent))
	}
	for _, j := range ix.byName["job"] {
		for _, c := range ix.children[j.SpanID] {
			if c.Start.Before(j.Start) || c.End.After(j.End) {
				bad = append(bad, fmt.Sprintf("%s span of trace %s lies outside its job span", c.Name, j.TraceID))
				break
			}
		}
	}
	return bad
}

// jobSelf returns the sorted self times (ms) of the daemon's job spans: the
// span minus the part of it its child spans cover.
func (ix *spanIndex) jobSelf() []float64 {
	var out []time.Duration
	for _, j := range ix.byName["job"] {
		out = append(out, spanDur(j)-covered(j, ix.children[j.SpanID]))
	}
	return msSorted(out)
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent otrace.SpanData, kids []otrace.SpanData) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				total += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		total += v.b.Sub(v.a)
		end = v.b
	}
	return total
}

// httpOverhead returns, for cache-hit jobs, the client's submit span minus
// the daemon's job span: the time HTTP and the client add to a job that
// does no work.
func (ix *spanIndex) httpOverhead() []float64 {
	var out []time.Duration
	for _, t := range ix.byTrace {
		j, ok := t["job"]
		if !ok || j.Attrs["cached"] != true {
			continue
		}
		if sub, ok := t["client.submit"]; ok {
			out = append(out, spanDur(sub)-spanDur(j))
		}
	}
	return msSorted(out)
}

// busy returns the worker time the daemon's spans account for: every
// simulation, plus the sampled intervals idle workers stole (they run on
// another worker while the owner's simulate span waits for them).
func (ix *spanIndex) busy() time.Duration {
	var total time.Duration
	for _, s := range ix.byName["simulate"] {
		total += spanDur(s)
	}
	for _, s := range ix.byName["sampled.interval"] {
		if s.Attrs["stolen"] == true {
			total += spanDur(s)
		}
	}
	return total
}

// Host-time layers of a CPU profile. A sample belongs to the first layer met
// walking its stack from the leaf up, except that anything under
// pipeline.New counts as machine construction ("new").
var layerNames = []string{
	"fetch", "rename", "issue", "execute", "complete", "retire", "policy",
	"fastforward", "step", "new", "cache", "tlb", "bpred", "workload",
	"funcsim", "simpoint", "other",
}

// pipelineStages maps the cycle loop's methods to their stage. Methods of
// pipeline.(*Machine) not listed are the cycle loop's own glue ("step").
var pipelineStages = map[string]string{
	"fetchStage": "fetch", "fetchPenalty": "fetch", "fqPush": "fetch", "fqFront": "fetch", "fqPop": "fetch", "fqClear": "fetch",
	"renameStage": "rename",
	"issueStage":  "issue", "ready": "issue", "srcVal": "issue", "markIssued": "issue", "iqSetBit": "issue", "iqClearBit": "issue",
	"execute": "execute", "loadExecute": "execute", "storeExecute": "execute", "checkMemOrder": "execute",
	"writeDest": "execute", "loadHook": "execute", "loadLatValue": "execute", "readMem": "execute", "finishFaulted": "execute",
	"opLatency": "execute", "evalBranch": "execute", "pkeyFault": "execute", "overlaps": "execute", "loadLatBucket": "execute",
	"completeStage": "complete", "resolveControl": "complete", "squashAfter": "complete", "rasCheckpoint": "complete", "rasRestore": "complete",
	"retireStage": "retire", "reissueAtHead": "retire", "reissueStoreAtHead": "retire", "commitStore": "retire",
	"deliverFault": "retire", "flushAndRedirect": "retire",
	"stepFast": "fastforward", "idleCycles": "fastforward", "skipIdle": "fastforward",
	"specPKRU": "policy", "specPKRUForEntry": "policy",
}

const pkgPrefix = "specmpk/internal/"

// frameLayer classifies one stack frame; "" means keep walking.
func frameLayer(fn string) string {
	if !strings.HasPrefix(fn, pkgPrefix) {
		return ""
	}
	rest := fn[len(pkgPrefix):]
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "cache", "tlb", "bpred", "workload", "funcsim", "simpoint":
		return pkg
	case "pipeline":
	default:
		return ""
	}
	// sym is e.g. "(*Machine).issueStage", "specMPKPolicy.LoadIssueGate",
	// "opLatency" or "New".
	recv, method, isMethod := strings.Cut(sym, ").")
	if !isMethod {
		recv, method, isMethod = strings.Cut(sym, ".")
		if !isMethod {
			method, recv = sym, ""
		}
	}
	method, _, _ = strings.Cut(method, ".func") // closures
	switch {
	case strings.HasSuffix(recv, "Policy"), strings.HasPrefix(method, "pol"):
		return "policy"
	case pipelineStages[method] != "":
		return pipelineStages[method]
	case recv == "(*Machine" || recv == "Machine":
		return "step"
	}
	return ""
}

// foldStack returns the layer of one sampled stack, leaf first.
func foldStack(stack []string) string {
	for _, fn := range stack {
		if fn == pkgPrefix+"pipeline.New" || fn == pkgPrefix+"pipeline.NewWithState" {
			return "new"
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and returns each
// layer's share of the sampled time.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses pprof's -traces listing: blocks separated by dashed
// lines, each starting with the sample's value and leaf frame, followed by
// one caller per line.
func foldTraces(listing []byte) (map[string]float64, error) {
	per := make(map[string]time.Duration)
	var total time.Duration
	var val time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			per[foldStack(stack)] += val
			total += val
		}
		stack, val = nil, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(listing))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 && val == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			val = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		shares[l] = float64(per[l]) / float64(total)
	}
	return shares, nil
}
