// Command perfbench is the repository's benchmark. It starts an in-process
// specmpkd (default options, two workers, a loopback listener), drives it
// through the typed client with two sender goroutines, checks every answer,
// and prints every metric by name with its unit; the last line of its
// standard output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload figsweep-full --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
// separate traced run: it repeats the workload untraced and then traced (span
// recorders armed, CPU profile on), prints the per-layer metrics, and writes
// the CPU profile and a Perfetto trace under --out. See README.md for the
// workloads and the metric map.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// processStart is when the benchmark process began; the first set-up counts
// from it.
var processStart = time.Now()

// An end-to-end run sets up at least setupReps times and for at least
// setupMin; setup_s is the median. Repeating a short set-up many times keeps
// its median steady.
const (
	setupReps = 5
	setupMin  = 2 * time.Second
)

// latencyLimit is service-mixed's latency limit: a rate step is met when
// its tail latency and the generator's lag at the step's end stay within it.
const latencyLimit = 50 * time.Millisecond

type options struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	out      string
}

// inputs are one timed phase's jobs: an open-loop schedule or a closed-loop
// job source.
type inputs struct {
	open   []*job
	closed *jobSource
	// spans sizes the span recorders of a traced phase so none is dropped.
	spans int
}

// spansPerJob bounds the spans one job leaves: at most 11 in the daemon (a
// sampled job's job, cache.lookup, queue.wait, simulate, sampled.profile,
// five sampled.interval and marshal) and 3 in the benchmark.
const spansPerJob = 16

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, run time.Duration, refs *refTable) (*inputs, error){
	"figsweep-full": func(seed int64, run time.Duration, refs *refTable) (*inputs, error) {
		return prepareSweep(seed, run, refs, false)
	},
	"service-mixed": prepareMixed,
	"sampled-sweep": func(seed int64, run time.Duration, refs *refTable) (*inputs, error) {
		return prepareSweep(seed, run, refs, true)
	},
}

// Sweep passes built during set-up per 10 s of run, sized above the rate the
// benchmark host reaches; further passes are built on demand.
const (
	fullPassesPer10s    = 2
	sampledPassesPer10s = 4
)

func prepareSweep(seed int64, run time.Duration, refs *refTable, sampled bool) (*inputs, error) {
	modes, per10s := modeNames(), fullPassesPer10s
	if sampled {
		modes, per10s = paperTrio, sampledPassesPer10s
	}
	more := func(pass int) ([]*job, error) {
		jobs, err := sweepPass(seed, pass, modes, sampled, refs)
		if err != nil {
			return nil, err
		}
		return jobs, setKeys(jobs)
	}
	src := &jobSource{more: more}
	passes := 1 + int(run.Seconds()*float64(per10s)/10)
	for p := 0; p < passes; p++ {
		if _, err := src.get(len(src.jobs)); err != nil {
			return nil, err
		}
	}
	src.mandatory = len(src.jobs) / passes
	// Twice the pre-built jobs: passes built on demand need room too.
	return &inputs{closed: src, spans: 2 * spansPerJob * len(src.jobs)}, nil
}

func prepareMixed(seed int64, run time.Duration, _ *refTable) (*inputs, error) {
	jobs := mixSchedule(seed, run)
	return &inputs{open: jobs, spans: spansPerJob * len(jobs)}, setKeys(jobs)
}

// setKeys computes each job's expected content address.
func setKeys(jobs []*job) error {
	for _, j := range jobs {
		k, err := j.spec.Key()
		if err != nil {
			return err
		}
		j.want.key = k
	}
	return nil
}

// phase is one timed phase's outcome.
type phase struct {
	// start is when the phase began, end the last counted answer.
	start, end time.Time
	// samples are every job sent, in job order; counted are those that
	// finished inside the timed window.
	samples, counted []*sample
	open             bool
}

func (p *phase) elapsed() time.Duration { return p.end.Sub(p.start) }

// runPhase drives one timed phase. A closed loop's window is the run length,
// stretched until the mandatory jobs are done; an open loop's ends with the
// last answer to its schedule.
func runPhase(d *daemon, in *inputs, run time.Duration, rec *otrace.Recorder) (*phase, error) {
	ctx := context.Background()
	p := &phase{start: time.Now(), open: in.open != nil}
	var err error
	if p.open {
		p.samples = d.openLoop(ctx, rec, in.open, p.start)
	} else {
		p.samples, err = d.closedLoop(ctx, rec, in.closed, p.start.Add(run))
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].idx < p.samples[b].idx })
	// The window closes at the deadline, or later if a mandatory job (every
	// job of an open loop) was still running; it is measured to the last
	// answer inside it, so rates keep their digits.
	window := p.start.Add(run)
	for _, s := range p.samples {
		if (p.open || s.idx < in.closed.mandatory) && s.done.After(window) {
			window = s.done
		}
	}
	p.end = p.start
	for _, s := range p.samples {
		if !s.done.After(window) {
			p.counted = append(p.counted, s)
			if s.done.After(p.end) {
				p.end = s.done
			}
		}
	}
	return p, err
}

// setup builds the workload's inputs and starts a daemon; a traced daemon's
// flight recorder is sized for the inputs.
func setup(o options, refs *refTable, traced bool) (*daemon, *inputs, error) {
	in, err := workloads[o.workload](o.seed, o.run, refs)
	if err != nil {
		return nil, nil, err
	}
	spans := 0
	if traced {
		spans = in.spans
	}
	d, err := startDaemon(spans)
	return d, in, err
}

// outcome accumulates a run's verdict.
type outcome struct {
	attempted int
	ck        *checker
	problems  []string
}

func (oc *outcome) checkPhase(p *phase) {
	oc.attempted += len(p.samples)
	for _, s := range p.samples {
		oc.ck.check(s)
	}
}

func run(o options) (*report, []string, error) {
	if workloads[o.workload] == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (have figsweep-full, service-mixed, sampled-sweep)", o.workload)
	}
	refs, err := loadReference()
	if err != nil {
		return nil, nil, err
	}
	r := &report{Metrics: make(map[string]metric)}
	oc := &outcome{ck: newChecker()}
	var notes []string
	if o.trace {
		notes, err = tracedRun(o, refs, r, oc)
	} else {
		notes, err = endToEndRun(o, refs, r, oc)
	}
	if err != nil {
		return nil, nil, err
	}
	r.Attempted = oc.attempted
	r.Failed = oc.ck.failed
	r.Correct = oc.ck.failed == 0 && len(oc.problems) == 0 && oc.attempted > 0
	notes = append(notes, oc.ck.errs...)
	notes = append(notes, oc.ck.outside...)
	notes = append(notes, oc.problems...)
	return r, notes, nil
}

func endToEndRun(o options, refs *refTable, r *report, oc *outcome) ([]string, error) {
	var d *daemon
	var in *inputs
	var setups []float64
	for t0 := processStart; ; t0 = time.Now() {
		var err error
		if d, in, err = setup(o, refs, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) >= setupReps && time.Since(processStart) >= setupMin {
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	p, err := runPhase(d, in, o.run, nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	oc.checkPhase(p)

	r.set("setup_s", median(setups), "s")
	throughput(r, p, oc.ck)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil, nil
}

// throughput sets jobs_per_s and job_minst_per_s: answered jobs, and the
// simulated instructions they report, per host second of the timed window.
func throughput(r *report, p *phase, ck *checker) {
	var insts uint64
	for _, s := range p.counted {
		if res := ck.parsed[s.info.Key]; res != nil {
			insts += res.Stats.Insts
		}
	}
	r.set("jobs_per_s", float64(len(p.counted))/p.elapsed().Seconds(), "1/s")
	r.set("job_minst_per_s", float64(insts)/1e6/p.elapsed().Seconds(), "Minst/s")
}

// jobLatency sets job_p50_ms and job_tail_ms and returns a note naming the
// tail's percentile and sample count.
func jobLatency(r *report, p *phase) string {
	lat := latencies(p)
	pct, tv := tail(lat)
	r.set("job_p50_ms", quantile(lat, 0.5), "ms")
	r.set("job_tail_ms", tv, "ms")
	return fmt.Sprintf("job_tail_ms is the p%g of %d samples", pct, len(lat))
}

// latencies are the sorted latencies (ms) the job_p50/job_tail metrics are
// taken over: the counted jobs of a closed loop, the reference-rate step of
// an open loop.
func latencies(p *phase) []float64 {
	var ds []time.Duration
	for _, s := range p.counted {
		if !p.open || s.j.step == mixRefStep {
			ds = append(ds, s.latency())
		}
	}
	return msSorted(ds)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func tracedRun(o options, refs *refTable, r *report, oc *outcome) ([]string, error) {
	// Half the run untraced, for latency, the open loop's rate steps and the
	// tracing overhead; half traced, for everything read from spans and the
	// CPU profile.
	o.run /= 2
	d, in, err := setup(o, refs, false)
	if err != nil {
		return nil, err
	}
	plain, err := runPhase(d, in, o.run, nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	oc.checkPhase(plain)

	// Traced: fresh inputs (a closed loop's source is consumed) and a fresh
	// daemon with its flight recorder armed.
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close() // closed and checked below on the success path
	if d, in, err = setup(o, refs, true); err != nil {
		return nil, err
	}
	rec := otrace.NewRecorder(in.spans)
	if err := pprof.StartCPUProfile(prof); err != nil {
		d.stop()
		return nil, err
	}
	traced, err := runPhase(d, in, o.run, rec)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// The checker already holds the untraced phase's replies, so every
	// traced reply is also compared byte for byte against them.
	oc.checkPhase(traced)

	spans := append(d.srv.SpanRecorder().Spans(), rec.Spans()...)
	if n := d.srv.SpanRecorder().Dropped() + rec.Dropped(); n != 0 {
		oc.problems = append(oc.problems, fmt.Sprintf("span recorders dropped %d spans", n))
	}
	ix := indexSpans(spans)
	oc.problems = append(oc.problems, ix.check(len(traced.samples))...)
	if err := writeTrace(base+".trace.json", spans); err != nil {
		return nil, err
	}
	shares, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	for _, l := range layerNames {
		r.set("pipeline.self_share."+l, shares[l], "ratio")
	}
	layerMetrics(r, d, ix, traced)
	modelMetrics(r, traced.samples, oc.ck.parsed)
	note := jobLatency(r, plain)
	r.set("max_ok_rate", maxOKRate(plain), "1/s")
	r.set("bench.gen_lag_p99_ms", genLagP99(plain), "ms")
	r.set("bench.trace_overhead_pct", 100*(ratio(float64(len(plain.counted))/plain.elapsed().Seconds(),
		float64(len(traced.counted))/traced.elapsed().Seconds())-1), "%")
	r.set("error_rate", ratio(float64(oc.ck.failed), float64(oc.attempted)), "ratio")
	return []string{note, "trace written to " + base + ".trace.json", "CPU profile written to " + base + ".cpu.pprof"}, nil
}

// genLagP99 is the p99 of how late the open-loop generator sent its
// requests (0 for closed loops, which send as soon as they may).
func genLagP99(p *phase) float64 {
	var lag []time.Duration
	for _, s := range p.samples {
		lag = append(lag, s.lag())
	}
	return quantile(msSorted(lag), 0.99)
}

func writeTrace(path string, spans []otrace.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := otrace.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics sets the service layers' per-layer metrics of a traced phase.
func layerMetrics(r *report, d *daemon, ix *spanIndex, p *phase) {
	p50 := func(v []float64) float64 { return quantile(v, 0.5) }
	r.set("server.simulate_ms.p50", p50(ix.durations("simulate")), "ms")
	r.set("server.marshal_ms.p50", p50(ix.durations("marshal")), "ms")
	submit := ix.durations("client.submit")
	r.set("client.submit_ms.p50", p50(submit), "ms")
	r.set("client.submit_ms.p99", quantile(submit, 0.99), "ms")
	r.set("server.job_self_ms.p50", p50(ix.jobSelf()), "ms")
	r.set("server.cache_lookup_ms.p50", p50(ix.durations("cache.lookup")), "ms")
	r.set("http.overhead_ms.p50", p50(ix.httpOverhead()), "ms")
	qw := ix.durations("queue.wait")
	r.set("server.queue_wait_ms.p50", p50(qw), "ms")
	r.set("server.queue_wait_ms.p99", quantile(qw, 0.99), "ms")
	r.set("server.dedup_wait_ms.p50", p50(ix.durations("dedup.wait")), "ms")
	r.set("server.worker_busy_frac", ix.busy().Seconds()/(workers*p.elapsed().Seconds()), "ratio")
	r.set("server.sampled.profile_ms.p50", p50(ix.profileBuilds()), "ms")
	r.set("server.sampled.interval_ms.p50", p50(ix.durations("sampled.interval")), "ms")

	snap := d.srv.Registry().Snapshot()
	get := func(name string) float64 {
		v, _ := snap.Get(name)
		return v.Number()
	}
	r.set("server.cache.hit_ratio", ratio(get("server.cache.hits"), get("server.cache.hits")+get("server.cache.misses")), "ratio")
	r.set("server.cache.evictions", get("server.cache.evictions"), "count")
	r.set("server.dedup_ratio", ratio(get("server.jobs.deduped"), get("server.jobs.accepted")), "ratio")
	r.set("server.jobs.rejected", get("server.jobs.rejected"), "count")
	hits, misses := get("server.sampled.profile_cache_hits"), get("server.sampled.profile_cache_misses")
	r.set("server.sampled.profile_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("server.sampled.steal_ratio", ratio(get("server.sampled.intervals_stolen"), get("server.sampled.intervals")), "ratio")

	cs := d.cl.Stats()
	r.set("client.retries", float64(cs.Retries), "count")
	r.set("client.reconnects", float64(cs.Reconnects), "count")
	var kb []float64
	for _, s := range p.samples {
		kb = append(kb, float64(len(s.info.Result))/1024)
	}
	sort.Float64s(kb)
	r.set("client.reply_kb.p50", p50(kb), "KiB")
}

// maxOKRate returns the highest open-loop step rate whose tail latency and
// end-of-step generator lag stay within latencyLimit with no failed job (0
// for closed loops).
func maxOKRate(p *phase) float64 {
	if !p.open {
		return 0
	}
	best := 0.0
	for step, rate := range mixRates {
		var lat []time.Duration
		var last *sample
		ok := true
		for _, s := range p.samples {
			if s.j.step != step {
				continue
			}
			if s.err != nil || s.info.State != api.StateDone {
				ok = false
			}
			lat = append(lat, s.latency())
			last = s
		}
		if last == nil {
			continue
		}
		_, tv := tail(msSorted(lat))
		if ok && tv <= ms(latencyLimit) && last.lag() <= latencyLimit && rate > best {
			best = rate
		}
	}
	return best
}

func main() {
	var o options
	var seconds, trace int
	var writeRef string
	flag.StringVar(&o.workload, "workload", "", "workload: figsweep-full, service-mixed or sampled-sweep")
	flag.Int64Var(&o.seed, "seed", 1, "seed for programs, key popularity and the arrival schedule")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the traced run's CPU profile and Perfetto trace")
	flag.StringVar(&writeRef, "write-reference", "", "regenerate the full-fidelity reference table into this file and exit")
	flag.Parse()
	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.run, o.trace = time.Duration(seconds)*time.Second, trace == 1
	r, notes, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.write(os.Stdout, notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
