package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// fastRetry keeps test retries in the millisecond range.
var fastRetry = RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}

// TestBackoffGrowsCapsAndJitters checks the delay schedule: exponential
// from BaseDelay, capped at MaxDelay, every value jittered into [d/2, d].
func TestBackoffGrowsCapsAndJitters(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	b := newBackoff(p)
	raw := []time.Duration{10, 20, 40, 80, 80, 80} // ms, pre-jitter
	for i, d := range raw {
		d *= time.Millisecond
		got := b.next()
		if got < d/2 || got > d {
			t.Fatalf("delay %d: %v outside jitter window [%v, %v]", i, got, d/2, d)
		}
	}
	b.reset()
	if got := b.next(); got < 5*time.Millisecond || got > 10*time.Millisecond {
		t.Fatalf("post-reset delay %v, want back in [5ms, 10ms]", got)
	}
}

// TestBackoffJitterIsInjectable pins the injection seam: a caller-supplied
// Jitter fully determines where in the [d/2, d] window each delay lands.
func TestBackoffJitterIsInjectable(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}

	p.Jitter = func() float64 { return 0 } // bottom of the window: exactly d/2
	low := newBackoff(p)
	for i, d := range []time.Duration{10, 20, 40, 80, 80} {
		d *= time.Millisecond
		if got := low.next(); got != d/2 {
			t.Fatalf("delay %d with zero jitter: %v, want exactly %v", i, got, d/2)
		}
	}

	// Two backoffs sharing one injected stream replay the same schedule —
	// the reproducible-retry-test property the seam exists for.
	mk := func() *backoff {
		q := p
		q.Jitter = defaultJitter(42)
		return newBackoff(q)
	}
	a, b := mk(), mk()
	for i := 0; i < 10; i++ {
		if da, db := a.next(), b.next(); da != db {
			t.Fatalf("draw %d: %v != %v despite identical jitter streams", i, da, db)
		}
	}
}

// TestBackoffDefaultJitterIsDeterministic: the default stream is seeded from
// the instance number, never the clock — same n, same sequence; different n,
// decorrelated sequences.
func TestBackoffDefaultJitterIsDeterministic(t *testing.T) {
	j1, j2, j3 := defaultJitter(7), defaultJitter(7), defaultJitter(8)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		a, b, c := j1(), j2(), j3()
		if a < 0 || a >= 1 {
			t.Fatalf("draw %d: %v outside [0, 1)", i, a)
		}
		if a != b {
			same = false
		}
		if a != c {
			diff = true
		}
	}
	if !same {
		t.Fatal("defaultJitter(7) streams diverged")
	}
	if !diff {
		t.Fatal("defaultJitter(7) and defaultJitter(8) produced identical streams")
	}
}

func TestBackoffDefaultsApply(t *testing.T) {
	var p RetryPolicy
	if p.attempts() != 6 || p.base() != 100*time.Millisecond || p.max() != 5*time.Second {
		t.Fatalf("zero-value policy resolved to attempts=%d base=%v max=%v",
			p.attempts(), p.base(), p.max())
	}
}

// TestSubmitRetriesTransient503 proves the retry layer absorbs a transiently
// overloaded daemon: two 503s, then success.
func TestSubmitRetriesTransient503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // ignored (non-positive): backoff schedule applies
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{ID: "j-1", State: api.StateQueued})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	info, err := c.Submit(context.Background(), api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "j-1" {
		t.Fatalf("info %+v", info)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", got)
	}
}

// TestRetryAfterHintIsParsed: a 503's Retry-After header surfaces on the
// typed error and marks it transient, so the sleep layer can honor it.
func TestRetryAfterHintIsParsed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 1} // observe the raw error, no retries
	_, err := c.Job(context.Background(), "j-1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v, want APIError", err)
	}
	if apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", apiErr.RetryAfter)
	}
	ra, ok := transient(err)
	if !ok || ra != 2*time.Second {
		t.Fatalf("transient() = (%v, %v), want (2s, true)", ra, ok)
	}
}

// TestPermanentErrorsAreNotRetried: a 400 must burn exactly one attempt.
func TestPermanentErrorsAreNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad spec"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	if _, err := c.Submit(context.Background(), api.JobSpec{}); err == nil {
		t.Fatal("bad spec succeeded")
	} else if _, ok := transient(err); ok {
		t.Fatalf("400 classified transient: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests for a permanent error, want 1", got)
	}
}

// TestTransientClassification pins the retry layer's taxonomy.
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&APIError{Status: 400}, false},
		{&APIError{Status: 404}, false},
		{&APIError{Status: 500}, false},
		{&APIError{Status: 502}, true},
		{&APIError{Status: 503}, true},
		{&APIError{Status: 504}, true},
		{errors.New("read tcp: connection reset by peer"), true},
		{fmt.Errorf("wrapped: %w", &APIError{Status: 503}), true},
		{&JobError{Info: api.JobInfo{ID: "j", State: api.StateFailed, Error: "deadline: exceeded"}}, false},
		{fmt.Errorf("wrapped: %w", &JobError{Info: api.JobInfo{State: api.StateCancelled}}), false},
	}
	for _, tc := range cases {
		if _, got := transient(tc.err); got != tc.want {
			t.Errorf("transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRunResubmitsAfterDaemonRestart simulates a daemon that restarts and
// disowns the job id mid-wait: the first submission's id starts answering
// 404, and Run must recover by resubmitting the content-addressed spec.
func TestRunResubmitsAfterDaemonRestart(t *testing.T) {
	result := api.Result{Key: "k", Version: "test", StopReason: "halt"}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			if submits.Add(1) == 1 {
				// Pre-restart daemon: accepts the job, then "dies".
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(api.JobInfo{ID: "j-old", State: api.StateQueued})
				return
			}
			// Post-restart daemon: same spec hits its cache, terminal at once.
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobInfo{
				ID: "j-new", State: api.StateDone, Cached: true, Result: resultJSON,
			})
		default:
			// Every status/event read of the lost id: the restarted daemon
			// has never heard of it.
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	res, info, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "halt" || !info.Cached || info.ID != "j-new" {
		t.Fatalf("res=%+v info=%+v", res, info)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("daemon saw %d submits, want 2 (original + resubmission)", got)
	}
}

// TestRunGivesUpWhenJobKeepsVanishing: if every resubmission's id is
// disowned too, Run fails with the job-lost error once the job's one retry
// budget is spent, instead of looping.
func TestRunGivesUpWhenJobKeepsVanishing(t *testing.T) {
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			n := submits.Add(1)
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobInfo{ID: fmt.Sprintf("j-%d", n), State: api.StateQueued})
			return
		}
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	_, _, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
	if err == nil || !IsUnknownJob(err) {
		t.Fatalf("err = %v, want wrapped unknown-job failure", err)
	}
	if got := submits.Load(); got != int32(fastRetry.MaxAttempts) {
		t.Fatalf("daemon saw %d submits, want %d", got, fastRetry.MaxAttempts)
	}
}

// TestEventsReconnectsAndDedups: a stream that dies mid-flight (connection
// abort) is reconnected; the daemon replays its buffer and the client must
// deliver each sequence number exactly once, in order.
func TestEventsReconnectsAndDedups(t *testing.T) {
	events := []api.Event{
		{Seq: 1, Cycle: 1000},
		{Seq: 2, Cycle: 2000},
		{Seq: 3, Cycle: 3000},
		{Seq: 4, Cycle: 4000, State: api.StateDone, Final: true},
	}
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		if conns.Add(1) == 1 {
			// First connection: two events, then the connection dies.
			enc.Encode(events[0])
			enc.Encode(events[1])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		// Reconnection: full replay from the buffer, through the final event.
		for _, ev := range events {
			enc.Encode(ev)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	var seen []uint64
	err := c.Events(context.Background(), "j-1", func(ev api.Event) error {
		seen = append(seen, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(seen) != len(want) {
		t.Fatalf("delivered seqs %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("delivered seqs %v, want %v (duplicate or reordered across reconnect)", seen, want)
		}
	}
	if got := conns.Load(); got != 2 {
		t.Fatalf("server saw %d stream connections, want 2", got)
	}
}

// TestEventsSurfacesCallbackError: an error from the caller's callback must
// abort the stream verbatim, never be retried past.
func TestEventsSurfacesCallbackError(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		json.NewEncoder(w).Encode(api.Event{Seq: 1, Cycle: 1000})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	sentinel := errors.New("caller aborts")
	err := c.Events(context.Background(), "j-1", func(api.Event) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's own error", err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("stream reconnected %d times past a callback error", got-1)
	}
}

// TestWaitRecoversWhenStreamsEndInconclusively: every event connection ends
// cleanly but without a final event; Wait must converge via backed-off
// re-polling of the status endpoint.
func TestWaitRecoversWhenStreamsEndInconclusively(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j-1/events" {
			return // empty 200: clean end, no final event
		}
		info := api.JobInfo{ID: "j-1", State: api.StateRunning}
		if polls.Add(1) >= 4 {
			info.State = api.StateDone
		}
		json.NewEncoder(w).Encode(info)
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = fastRetry
	info, err := c.Wait(context.Background(), "j-1")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != api.StateDone {
		t.Fatalf("state %s", info.State)
	}
}

// countingTransport counts every HTTP attempt the client makes, by method,
// including the ones that never reach a server.
type countingTransport struct {
	posts, others atomic.Int32
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		ct.posts.Add(1)
	} else {
		ct.others.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRunRetryBudgetBoundsAttemptsPerJob: one Run is one job with one retry
// budget of MaxAttempts, whatever fails. A daemon that always sheds load, one
// that refuses connections, and one that forgets every job id each cost at
// most MaxAttempts submits.
func TestRunRetryBudgetBoundsAttemptsPerJob(t *testing.T) {
	const n = 4
	policy := RetryPolicy{MaxAttempts: n, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	var jobs atomic.Int32
	cases := []struct {
		name    string
		handler http.HandlerFunc // nil: nothing listens
		check   func(t *testing.T, err error)
		others  int32 // non-submit requests the job may make
	}{
		{
			name: "always-503",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"queue full"}`)
			},
			check: func(t *testing.T, err error) {
				var ae *APIError
				if !errors.As(err, &ae) || !ae.Unavailable() || IsPeerDown(err) {
					t.Fatalf("err = %v, want the 503 APIError", err)
				}
			},
		},
		{
			name: "refused",
			check: func(t *testing.T, err error) {
				var pd *PeerDownError
				if !errors.As(err, &pd) || pd.Attempts != n {
					t.Fatalf("err = %v, want a PeerDownError after %d attempts", err, n)
				}
			},
		},
		{
			name: "forgets-job-ids",
			handler: func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					w.WriteHeader(http.StatusAccepted)
					json.NewEncoder(w).Encode(api.JobInfo{ID: fmt.Sprintf("j-%d", jobs.Add(1)), State: api.StateQueued})
					return
				}
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprint(w, `{"error":"unknown job"}`)
			},
			check: func(t *testing.T, err error) {
				if !IsUnknownJob(err) {
					t.Fatalf("err = %v, want the wrapped unknown-job failure", err)
				}
			},
			others: n, // one status read per submit
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := deadAddr(t)
			var served atomic.Int32
			if tc.handler != nil {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					served.Add(1)
					tc.handler(w, r)
				}))
				defer ts.Close()
				addr = ts.URL
			}
			ct := &countingTransport{}
			c := New(addr)
			c.hc = &http.Client{Transport: ct}
			c.Retry = policy
			_, _, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
			tc.check(t, err)
			if got := ct.posts.Load(); got > n {
				t.Fatalf("%d submit attempts for one job, budget is %d", got, n)
			}
			if got := ct.others.Load(); got > tc.others {
				t.Fatalf("%d non-submit requests for one job, want <= %d", got, tc.others)
			}
			if tc.handler != nil && served.Load() != ct.posts.Load()+ct.others.Load() {
				t.Fatalf("handler served %d requests, client sent %d", served.Load(), ct.posts.Load()+ct.others.Load())
			}
		})
	}
}

// TestRunProgressRefillsBudget: stream drops that follow new events do not
// exhaust the budget — a long job survives more isolated drops than
// MaxAttempts, each preceded by progress.
func TestRunProgressRefillsBudget(t *testing.T) {
	const n, drops = 2, 6
	result, err := json.Marshal(api.Result{Key: "k", StopReason: "halt"})
	if err != nil {
		t.Fatal(err)
	}
	var conns, polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.JobInfo{ID: "j-1", State: api.StateQueued})
		case r.URL.Path == "/v1/jobs/j-1/events":
			// Connection k delivers events 1..k, then dies; the last one
			// also delivers the final event.
			k := conns.Add(1)
			enc := json.NewEncoder(w)
			for seq := uint64(1); seq <= uint64(k); seq++ {
				enc.Encode(api.Event{Seq: seq, Cycle: seq * 1000})
			}
			if k > drops {
				enc.Encode(api.Event{Seq: uint64(k) + 1, State: api.StateDone, Final: true})
				return
			}
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		default:
			info := api.JobInfo{ID: "j-1", State: api.StateRunning}
			if polls.Add(1) > 1 {
				info.State, info.Result = api.StateDone, result
			}
			json.NewEncoder(w).Encode(info)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: n, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	res, _, err := c.Run(context.Background(), api.JobSpec{Asm: haltAsm})
	if err != nil {
		t.Fatalf("job with %d progressing stream drops failed at MaxAttempts %d: %v", drops, n, err)
	}
	if res.StopReason != "halt" {
		t.Fatalf("result %+v", res)
	}
	if got := c.Stats().Reconnects; got != drops {
		t.Fatalf("Reconnects = %d, want %d", got, drops)
	}
}
