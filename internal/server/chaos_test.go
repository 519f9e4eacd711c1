package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/server/api"
)

// The chaos suite: arm a seeded fault plan at the service seams and prove
// the hardening holds — the daemon never dies, every accepted job reaches a
// terminal state, the cache never holds bytes a faulted run produced, and
// the fault/recovery counters account for what happened. Run under -race
// (make chaos); the fault points fire on the same goroutines as production
// traffic, so injected latency also widens race windows.

func armPlan(t *testing.T, plan faults.Plan) {
	t.Helper()
	if err := faults.Arm(plan); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
}

// TestChaosWorkerPanicContained: a panicking simulation becomes a failed
// job carrying the panic value and stack; the pool survives and the
// recovery counter accounts for every panic.
func TestChaosWorkerPanicContained(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.worker.simulate", Action: faults.ActionPanic, Times: 3, Message: "chaos-panic"},
	}})

	var infos []api.JobInfo
	for i := 0; i < 3; i++ {
		info, err := s.Submit(uniqueSpec(i, 10_000))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	for _, info := range infos {
		final := waitJob(t, s, info.ID)
		if final.State != api.StateFailed {
			t.Fatalf("job %s: state %s, want failed (contained panic)", info.ID, final.State)
		}
		if !strings.Contains(final.Error, "chaos-panic") || !strings.Contains(final.Error, "goroutine") {
			t.Fatalf("job %s error lacks panic value/stack: %q", info.ID, final.Error)
		}
	}
	if got := s.panicsRecovered.Load(); got != 3 {
		t.Fatalf("panics_recovered = %d, want 3", got)
	}

	// The pool must still be serviceable once the plan is spent/disarmed.
	faults.Disarm()
	next, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, next.ID); final.State != api.StateDone {
		t.Fatalf("post-chaos job state %s, want done", final.State)
	}
	if s.cache.len() != 1 { // only the clean run's result
		t.Fatalf("cache holds %d entries, want 1 (panicked runs must not be cached)", s.cache.len())
	}
}

// TestChaosFaultedRunsNeverCached: with every completion path faulted
// (marshal errors), jobs fail terminally and nothing reaches the cache.
func TestChaosFaultedRunsNeverCached(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.result.marshal", Action: faults.ActionError, Message: "marshal-chaos"},
	}})
	for i := 0; i < 4; i++ {
		info, err := s.Submit(uniqueSpec(i, 5_000))
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, s, info.ID)
		if final.State != api.StateFailed || !strings.Contains(final.Error, "marshal-chaos") {
			t.Fatalf("job %s: state=%s err=%q, want injected marshal failure", info.ID, final.State, final.Error)
		}
	}
	if s.cache.len() != 0 {
		t.Fatalf("cache holds %d entries after all-faulted runs, want 0", s.cache.len())
	}
	// Disarmed, the same specs simulate cleanly and are NOT served from a
	// poisoned cache (they must actually run: Cached stays false).
	faults.Disarm()
	info, err := s.Submit(uniqueSpec(0, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("failed run's spec answered from cache")
	}
	if final := waitJob(t, s, info.ID); final.State != api.StateDone {
		t.Fatalf("clean rerun state %s", final.State)
	}
}

// TestChaosCacheFaultsDegradeToMisses: injected cache faults cost
// re-simulation, never correctness — and a flaky put leaves the cache
// empty rather than half-written.
func TestChaosCacheFaultsDegradeToMisses(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.cache.get", Action: faults.ActionDrop},
		{Point: "server.cache.put", Action: faults.ActionError},
	}})
	spec := spinSpec(5_000)
	var results [][]byte
	for i := 0; i < 2; i++ {
		info, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Fatal("cache hit while cache faults armed")
		}
		final := waitJob(t, s, info.ID)
		if final.State != api.StateDone {
			t.Fatalf("state %s", final.State)
		}
		results = append(results, final.Result)
	}
	if string(results[0]) != string(results[1]) {
		t.Fatal("faulted-cache reruns disagree — determinism broken")
	}
	if s.cache.len() != 0 {
		t.Fatalf("cache stored %d entries through an always-failing put", s.cache.len())
	}
}

// TestChaosAdmissionFaultIsRetryable503: an injected admission fault
// surfaces exactly like queue-full — ErrUnavailable in-process, 503 with
// Retry-After over HTTP — so existing client retry logic absorbs it.
func TestChaosAdmissionFaultIsRetryable503(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.queue.admit", Action: faults.ActionError, Times: 1, Message: "admit-chaos"},
	}})
	_, err := s.Submit(spinSpec(5_000))
	var unavail ErrUnavailable
	if !errors.As(err, &unavail) || !strings.Contains(unavail.Reason, "admit-chaos") {
		t.Fatalf("faulted admission returned %v, want ErrUnavailable", err)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// The rule is spent; the next submit must sail through.
	info, err := s.Submit(spinSpec(5_000))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, info.ID)
}

// TestChaosDeadlineLatencyInjection: injected worker latency burns the
// job's wall-clock budget; the job fails with the deadline taxonomy, is
// counted, and is never cached.
func TestChaosDeadlineLatencyInjection(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.worker.simulate", Action: faults.ActionLatency, DelayMS: 120},
	}})
	spec := spinSpec(1 << 40)
	spec.MaxWallMS = 40
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateFailed || !strings.HasPrefix(final.Error, "deadline:") {
		t.Fatalf("state=%s err=%q, want deadline failure", final.State, final.Error)
	}
	if got := s.jobsDeadline.Load(); got != 1 {
		t.Fatalf("jobs_deadline = %d, want 1", got)
	}
	if s.cache.len() != 0 {
		t.Fatal("deadline-exceeded run reached the cache")
	}
}

// TestChaosHTTPFaultsAbsorbedByClientRetry: request-level faults (503s and
// aborted connections) bounce off the HTTP client's retry layer; metrics
// account for the injected faults and recovered panics.
func TestChaosHTTPFaultsAbsorbedByClientRetry(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.http.request", Action: faults.ActionError, Times: 2, Message: "http-chaos"},
	}})
	// First two requests answer 503 + Retry-After; a plain client sees them.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("faulted request: status=%d retry-after=%q, want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// One fault charge left; the second hits it, the third succeeds.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request status %d, want 200", resp.StatusCode)
	}
}

// TestChaosHTTPPanicAnswers500AndServerSurvives: a panic inside a handler
// (injected at the request fault point) is contained by the recovery
// middleware — one 500, not a dead daemon.
func TestChaosHTTPPanicAnswers500AndServerSurvives(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.http.request", Action: faults.ActionPanic, Times: 1, Message: "handler-chaos"},
	}})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked handler answered %d, want 500", resp.StatusCode)
	}
	if got := s.panicsRecovered.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not survive the handler panic: %d", resp.StatusCode)
	}
}

// TestChaosEverySeamNoJobLost is the acceptance drill: a seeded plan arms
// every registered service seam at once with a mix of errors, latency,
// drops, and (contained) panics; a burst of concurrent submissions must
// leave no job in limbo — each accepted job reaches a terminal state, the
// daemon keeps serving, and the cache holds only clean results.
func TestChaosEverySeamNoJobLost(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4, QueueSize: 256, EventInterval: 1000})
	armPlan(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Point: "server.queue.admit", Action: faults.ActionError, Probability: 0.2},
		{Point: "server.worker.simulate", Action: faults.ActionPanic, Probability: 0.3, Message: "chaos"},
		{Point: "server.cache.get", Action: faults.ActionDrop, Probability: 0.5},
		{Point: "server.cache.put", Action: faults.ActionError, Probability: 0.5},
		{Point: "server.result.marshal", Action: faults.ActionError, Probability: 0.2},
		{Point: "server.events.stream", Action: faults.ActionDrop, Probability: 0.3},
		{Point: "server.http.request", Action: faults.ActionLatency, DelayMS: 1, Probability: 0.5},
	}})

	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			info, err := s.Submit(uniqueSpec(i%12, 5_000))
			if err != nil {
				// Rejected at admission (injected or queue full): the job
				// was never accepted, which is a fine terminal answer —
				// but it must be the retryable kind.
				var unavail ErrUnavailable
				if !errors.As(err, &unavail) {
					errs[i] = fmt.Errorf("submit %d: %v (not ErrUnavailable)", i, err)
				}
				return
			}
			final := waitJob(t, s, info.ID)
			if !api.Terminal(final.State) {
				errs[i] = fmt.Errorf("job %s stuck in %s", info.ID, final.State)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	// Daemon must still serve clean traffic.
	faults.Disarm()
	info, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, info.ID); final.State != api.StateDone {
		t.Fatalf("post-chaos job state %s", final.State)
	}

	// Every cache entry must be a clean result: re-running its spec with
	// faults disarmed must reproduce the cached bytes exactly.
	for i := 0; i < 12; i++ {
		spec := uniqueSpec(i, 5_000)
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := norm.Key()
		if err != nil {
			t.Fatal(err)
		}
		cached, ok := s.cache.get(key, nil)
		if !ok {
			continue // never completed cleanly under chaos: fine
		}
		fresh := rerunWithoutCache(t, spec)
		if string(cached.raw()) != string(fresh) {
			t.Fatalf("cache entry for spec %d differs from a clean rerun — poisoned by a faulted run", i)
		}
	}
}

// rerunWithoutCache simulates spec on a pristine fault-free server and
// returns the canonical result bytes.
func rerunWithoutCache(t *testing.T, spec api.JobSpec) []byte {
	t.Helper()
	ref := newTestServer(t, Options{Workers: 1, CacheEntries: -1, EventInterval: 1000})
	info, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, ref, info.ID)
	if final.State != api.StateDone {
		t.Fatalf("reference rerun state %s", final.State)
	}
	return final.Result
}

// TestDeadlineDefaultFromServerOptions: the server-wide wall-clock budget
// applies to specs that do not set their own.
func TestDeadlineDefaultFromServerOptions(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1_000_000, MaxWallMS: 50})
	info, err := s.Submit(spinSpec(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateFailed || !strings.HasPrefix(final.Error, "deadline:") {
		t.Fatalf("state=%s err=%q, want deadline failure from server default", final.State, final.Error)
	}
	if s.cache.len() != 0 {
		t.Fatal("deadline-exceeded run reached the cache")
	}
	// A fast job under the same default completes fine.
	ok, err := s.Submit(api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, ok.ID); final.State != api.StateDone {
		t.Fatalf("fast job under wall budget: state %s", final.State)
	}
}

// TestDeadlineSpecOverridesServerDefault: a spec's own MaxWallMS wins.
func TestDeadlineSpecOverridesServerDefault(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000, MaxWallMS: 10})
	spec := api.JobSpec{Asm: haltAsm, MaxWallMS: 60_000}
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, s, info.ID); final.State != api.StateDone {
		t.Fatalf("state %s (%s): spec-level wall budget should have overridden the 10ms default",
			final.State, final.Error)
	}
}

// TestDeadlineCancelStillReportsCancelled: the deadline wrapper must not
// reclassify explicit cancellation.
func TestDeadlineCancelStillReportsCancelled(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 10_000, MaxWallMS: 60_000})
	info, err := s.Submit(spinSpec(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := s.Job(info.ID)
		if cur.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := s.Cancel(info.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitJob(t, s, info.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %s, want cancelled (not reclassified by deadline wrapper)", final.State)
	}
	if got := s.jobsDeadline.Load(); got != 0 {
		t.Fatalf("jobs_deadline = %d for an explicit cancel", got)
	}
}

// TestChaosMetricsExported: the fault and recovery counters flow through
// the registry to the Prometheus endpoint.
func TestChaosMetricsExported(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()
	armPlan(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.worker.simulate", Action: faults.ActionPanic, Times: 1},
	}})
	info, err := s.Submit(spinSpec(5_000))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, info.ID)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"server_panics_recovered 1",
		"server_jobs_deadline 0",
		"faults_panics",
		"faults_fired",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestChaosClientSurvivesEventStreamDrops: with the stream dropping every
// event, the resilient client's Wait still lands on the terminal state via
// backed-off re-polling.
func TestChaosClientSurvivesEventStreamDrops(t *testing.T) {
	chaosClientTest(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.events.stream", Action: faults.ActionDrop},
	}})
}

// TestChaosClientSurvivesConnectionAborts: dropped HTTP requests (aborted
// mid-connection) are retried transparently.
func TestChaosClientSurvivesConnectionAborts(t *testing.T) {
	chaosClientTest(t, faults.Plan{Rules: []faults.Rule{
		{Point: "server.http.request", Action: faults.ActionDrop, Probability: 0.4},
	}})
}

// chaosClientTest runs one halt job through the full HTTP client path with
// the given plan armed and requires a clean result. The client import lives
// in the client package's own tests; here we drive raw HTTP in the shape
// Wait uses (status poll + event stream + re-poll) to keep the server
// package dependency-light.
func chaosClientTest(t *testing.T, plan faults.Plan) {
	t.Helper()
	s := newTestServer(t, Options{Workers: 1, EventInterval: 1000})
	ts := httptest.NewServer(s)
	defer ts.Close()
	armPlan(t, plan)

	// Submit with manual retry on 503/abort, mimicking the client layer.
	var info api.JobInfo
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"asm": "main:\n movi t0, 2\n halt\n", "maxCycles": 50000}`))
		if err == nil && resp.StatusCode == http.StatusAccepted {
			if derr := decodeInto(resp, &info); derr == nil {
				break
			}
		} else if err == nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("submit never succeeded under chaos")
		}
		time.Sleep(10 * time.Millisecond)
	}

	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
		if err == nil && resp.StatusCode == http.StatusOK {
			var cur api.JobInfo
			if derr := decodeInto(resp, &cur); derr == nil && api.Terminal(cur.State) {
				if cur.State != api.StateDone {
					t.Fatalf("job ended %s (%s)", cur.State, cur.Error)
				}
				return
			}
		} else if err == nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state under chaos")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
