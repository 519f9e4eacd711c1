// Package client is the typed Go client for the specmpkd HTTP API. It is
// what `specmpk-bench -remote` builds on: Submit/Wait/Run map one experiment
// simulation onto one daemon job, with the daemon's content-addressed cache
// and single-flight dedup collapsing repeated specs across sweep runs.
//
// The client is resilient by default: transient failures — connection
// resets, daemon restarts, 503 overload/drain responses (whose Retry-After
// is honored), truncated event streams — are retried with capped
// exponential backoff and jitter. Because job specs are content-addressed,
// every retry is idempotent: resubmitting a spec lands on the cache, an
// identical in-flight execution, or the same deterministic simulation, so
// Run can even survive the daemon being killed and restarted mid-job by
// resubmitting when the new daemon no longer knows the job id.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// Client talks to one specmpkd instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	// Retry shapes the resilience layer. Set it (or leave the zero value
	// for the defaults) before the first call.
	Retry RetryPolicy

	// Resilience counters (see Stats): how often the retry layer actually
	// worked, so sweeps and chaos drills can assert recovery happened via
	// retry/resubmission rather than luck.
	retries    atomic.Uint64
	resubmits  atomic.Uint64
	reconnects atomic.Uint64
}

// Stats is a snapshot of the client's resilience counters.
type Stats struct {
	// Retries counts failed attempts that were retried by doRetry.
	Retries uint64
	// Resubmits counts whole submit+wait cycles re-run after the daemon
	// disowned a job id (restart recovery via the content-addressed key).
	Resubmits uint64
	// Reconnects counts event-stream reconnection attempts.
	Reconnects uint64
}

// Stats returns a snapshot of the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Retries:    c.retries.Load(),
		Resubmits:  c.resubmits.Load(),
		Reconnects: c.reconnects.Load(),
	}
}

// Addr returns the daemon base URL this client talks to.
func (c *Client) Addr() string { return c.base }

// New returns a client for addr ("host:port" or a full http:// URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		// The transport-level timeout stays generous: Wait streams events
		// for the whole simulation. Per-call deadlines come from ctx.
		hc: &http.Client{},
	}
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("specmpkd: %s (HTTP %d)", e.Msg, e.Status)
}

// Unavailable reports whether the error is a 503 — queue full or draining —
// i.e. worth retrying elsewhere or later.
func (e *APIError) Unavailable() bool { return e.Status == http.StatusServiceUnavailable }

// JobError is a job that reached a terminal state other than done — failed
// (bad spec, panicking simulation, wall-clock deadline) or cancelled. It is
// never transient: the spec is deterministic, so re-running reproduces it.
type JobError struct {
	Info api.JobInfo
}

func (e *JobError) Error() string {
	// The daemon-reported trace ID rides in the message: it is the handle
	// into the daemon's flight recorder (GET /v1/debug/spans?trace=...) and
	// structured logs, so a sweep's failure report is directly actionable.
	trace := ""
	if e.Info.TraceID != "" {
		trace = fmt.Sprintf(" (trace %s)", e.Info.TraceID)
	}
	if e.Info.State == api.StateCancelled {
		return fmt.Sprintf("specmpkd: job %s cancelled%s", e.Info.ID, trace)
	}
	return fmt.Sprintf("specmpkd: job %s failed: %s%s", e.Info.ID, e.Info.Error, trace)
}

// PeerDownError is a daemon that could not be reached at all: every attempt
// the retry policy allowed failed at the connection level (dial refused,
// reset before a response). It is what lets a cluster layer — or a plain
// caller — distinguish "this peer is gone, fail over" from "this peer is
// slow or overloaded, keep waiting". The zero-cost alternative, retrying the
// same dead address until the caller's context expires, is exactly the spin
// this type exists to end.
type PeerDownError struct {
	// Addr is the unreachable daemon's base URL.
	Addr string
	// Attempts is how many connection attempts failed before giving up.
	Attempts int
	// Err is the last connection-level error.
	Err error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("specmpkd: peer %s down (%d connection attempts failed): %v", e.Addr, e.Attempts, e.Err)
}

func (e *PeerDownError) Unwrap() error { return e.Err }

// IsPeerDown reports whether err is a PeerDownError — the retry policy was
// exhausted without ever completing a request against the peer.
func IsPeerDown(err error) bool {
	var pd *PeerDownError
	return errors.As(err, &pd)
}

// isConnFailure reports whether err is a connection-level failure: the
// request never produced an HTTP response (dial refused, reset, truncated).
// HTTP-level errors — even 503s — prove the peer is alive, so they never
// count toward a peer-down verdict.
func isConnFailure(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	var jobErr *JobError
	return !errors.As(err, &apiErr) && !errors.As(err, &jobErr)
}

// IsUnknownJob reports whether err is the daemon disowning a job id (404) —
// after a restart, every pre-restart id is gone. The recovery is not to
// retry the status call but to resubmit the spec, which the
// content-addressed key makes idempotent; Run does this automatically.
func IsUnknownJob(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// transient classifies err for the retry layer: true for failures where a
// later identical attempt can succeed — transport errors (daemon
// restarting, connection reset) and 502/503/504 responses — along with any
// server-provided Retry-After delay. Context cancellation and every other
// API error (400 bad spec, 404 unknown job, 500 bugs) are permanent.
func transient(err error) (retryAfter time.Duration, ok bool) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var jobErr *JobError
	if errors.As(err, &jobErr) {
		return 0, false // terminal job outcome: deterministic, never retried
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
			return apiErr.RetryAfter, true
		}
		return 0, false
	}
	// Not an API response at all: the request never completed (dial, reset,
	// truncated body). Safe to retry — the whole API is idempotent.
	return 0, true
}

// ctxMarker keys the cluster-coordination context flags below.
type ctxMarker int

const (
	ctxForwarded ctxMarker = iota
	ctxResubmit
)

// WithForwarded marks every submit under ctx as already cluster-placed
// (api.HeaderForwarded): the receiving daemon simulates locally instead of
// forwarding again. Cluster coordinators set it on the requests they route.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxForwarded, true)
}

// WithResubmit marks every submit under ctx as a re-placement of a job whose
// first placement died (api.HeaderResubmit), so the receiving daemon's
// server.jobs.resubmitted counter records the recovery.
func WithResubmit(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxResubmit, true)
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace context as a W3C traceparent header; the
	// daemon joins the trace (and echoes the trace ID back in JobInfo).
	if sc := otrace.FromContext(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	if ctx.Value(ctxForwarded) != nil {
		req.Header.Set(api.HeaderForwarded, "1")
	}
	if ctx.Value(ctxResubmit) != nil {
		req.Header.Set(api.HeaderResubmit, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// doRetry is do wrapped in the resilience layer: transient failures are
// retried against b with backoff (or the server's Retry-After), permanent
// ones return immediately. When every attempt failed at the connection level
// the exhausted budget surfaces as a typed PeerDownError, so callers (the
// cluster coordinator above all) can fail over to another peer instead of
// retrying a dead address.
func (c *Client) doRetry(ctx context.Context, b *budget, method, path string, body, out any) error {
	for {
		err := c.do(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		ra, ok := transient(err)
		if !ok {
			return err
		}
		if err := b.fail(ctx, err, isConnFailure(err), ra); err != nil {
			return err
		}
		c.retries.Add(1)
	}
}

func decodeErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(b, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(b))
	}
	if e.Error == "" {
		e.Error = resp.Status
	}
	apiErr := &APIError{Status: resp.StatusCode, Msg: e.Error}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		apiErr.RetryAfter = time.Duration(ra) * time.Second
	}
	return apiErr
}

// Submit enqueues a job and returns its initial status (terminal already on
// a cache hit). Transient rejections (503 queue-full/draining, transport
// errors) are retried — content addressing makes resubmission free. The
// submit carries a W3C traceparent header: the caller's span context when
// ctx holds one, otherwise a fresh root minted here, so every retry of one
// logical submission lands in the same trace and the daemon's flight
// recorder can be queried by the returned JobInfo.TraceID.
func (c *Client) Submit(ctx context.Context, spec api.JobSpec) (api.JobInfo, error) {
	return c.submit(ctx, c.newBudget(), spec)
}

func (c *Client) submit(ctx context.Context, b *budget, spec api.JobSpec) (api.JobInfo, error) {
	if !otrace.FromContext(ctx).Valid() {
		ctx = otrace.ContextWith(ctx, otrace.NewRoot())
	}
	var info api.JobInfo
	err := c.doRetry(ctx, b, http.MethodPost, "/v1/jobs", spec, &info)
	return info, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (api.JobInfo, error) {
	return c.job(ctx, c.newBudget(), id)
}

func (c *Client) job(ctx context.Context, b *budget, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.doRetry(ctx, b, http.MethodGet, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// Cancel requests cancellation and returns the job's status.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobInfo, error) {
	var info api.JobInfo
	err := c.doRetry(ctx, c.newBudget(), http.MethodDelete, "/v1/jobs/"+id, nil, &info)
	return info, err
}

// maxEventLine caps one NDJSON event line. Events are small, but the cap is
// deliberately generous so a future fatter payload degrades to memory use,
// not a silently truncated stream (bufio.Scanner errors past its cap).
const maxEventLine = 8 << 20

// Events streams the job's NDJSON progress events, calling fn for each until
// the final event arrives, fn returns an error, or ctx is cancelled. A
// stream that drops mid-flight (daemon restart, proxy timeout, injected
// fault) is reconnected with backoff; the daemon replays its event buffer on
// resubscription and the client skips already-delivered sequence numbers, so
// fn sees each event once, in order, across reconnects. Events returns nil
// if the stream ends cleanly without a final event (job already terminal
// before subscribing and its buffer was replayed, or the subscription was
// detached server-side) — callers confirm terminal state via Job.
//
// New events reset the retry budget (deliberately — a long job must survive
// many isolated stream drops); a replayed buffer with nothing new does not.
// A peer that refuses every reconnection therefore surfaces as a typed
// PeerDownError once the policy's attempts are exhausted instead of the
// reconnection loop spinning against it forever.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Event) error) error {
	return c.events(ctx, c.newBudget(), id, fn)
}

func (c *Client) events(ctx context.Context, b *budget, id string, fn func(api.Event) error) error {
	var lastSeq uint64
	for {
		progressed, err := c.streamEvents(ctx, id, &lastSeq, fn)
		if progressed {
			b.progress()
		}
		if err == nil {
			return nil // final event delivered or clean end of stream
		}
		var fe *callbackError
		if errors.As(err, &fe) {
			return fe.err // fn aborted the stream: its error, verbatim
		}
		if _, ok := transient(err); !ok {
			return err
		}
		if err := b.fail(ctx, err, isConnFailure(err), 0); err != nil {
			return err
		}
		c.reconnects.Add(1)
	}
}

// callbackError tags an error returned by the caller's event callback so
// the reconnection loop surfaces it instead of retrying past it.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// streamEvents runs one events connection, delivering events newer than
// *lastSeq. It returns nil when the stream ended cleanly (final event or
// EOF) and reports whether any new event arrived on this connection.
func (c *Client) streamEvents(ctx context.Context, id string, lastSeq *uint64, fn func(api.Event) error) (progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, decodeErr(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxEventLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return progressed, fmt.Errorf("specmpkd: bad event line: %w", err)
		}
		if ev.Seq <= *lastSeq {
			continue // replayed on reconnection; already delivered
		}
		*lastSeq = ev.Seq
		progressed = true
		if err := fn(ev); err != nil {
			return progressed, &callbackError{err: err}
		}
		if ev.Final {
			return progressed, nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return progressed, err
	}
	return progressed, ctx.Err()
}

// Wait blocks until the job reaches a terminal state and returns its final
// status. It rides the event stream (so waiting costs no polling) and falls
// back to re-polling with capped exponential backoff plus jitter when the
// stream drops or ends inconclusively. Status retries, stream reconnects and
// inconclusive rounds share one retry budget, reset whenever new events
// arrive.
func (c *Client) Wait(ctx context.Context, id string) (api.JobInfo, error) {
	return c.wait(ctx, c.newBudget(), id)
}

func (c *Client) wait(ctx context.Context, b *budget, id string) (api.JobInfo, error) {
	var inconclusive error
	for {
		info, err := c.job(ctx, b, id)
		if err != nil {
			return api.JobInfo{}, err
		}
		if api.Terminal(info.State) {
			return info, nil
		}
		if inconclusive != nil {
			// The last stream ended without a final event and the job is
			// still live. The daemon answered, so this is no peer-down
			// evidence: back off, then stream again.
			if err := b.fail(ctx, inconclusive, false, 0); err != nil {
				return api.JobInfo{}, err
			}
		}
		// Block on the event stream (reconnecting internally) until it
		// closes, then re-check; a terminal state returns without sleeping.
		inconclusive = c.events(ctx, b, id, func(api.Event) error { return nil })
		if ctx.Err() != nil {
			return api.JobInfo{}, ctx.Err()
		}
		if inconclusive != nil && b.spent() {
			return api.JobInfo{}, inconclusive
		}
		if inconclusive == nil {
			inconclusive = fmt.Errorf("specmpkd: job %s: event stream ended without a final event", id)
		}
	}
}

// Run submits the spec and waits for the result — the one-call path the
// remote experiment runner uses. The returned JobInfo reports whether the
// result came from the cache. If the daemon restarts mid-job and no longer
// knows the job id, Run resubmits the spec: the content-addressed key
// guarantees the resubmission asks for exactly the same simulation.
//
// The whole job runs on one retry budget (RetryPolicy.MaxAttempts): every
// submit retry, status retry, failed stream reconnect and resubmission draws
// from it, and only new events refill it. A daemon that answers 503 forever
// therefore costs at most MaxAttempts submits per job.
func (c *Client) Run(ctx context.Context, spec api.JobSpec) (api.Result, api.JobInfo, error) {
	b := c.newBudget()
	sctx := ctx
	for {
		info, err := c.submit(sctx, b, spec)
		if err != nil {
			return api.Result{}, api.JobInfo{}, err
		}
		if !api.Terminal(info.State) {
			if info, err = c.wait(ctx, b, info.ID); err != nil {
				if !IsUnknownJob(err) || ctx.Err() != nil {
					return api.Result{}, info, err
				}
				if err := b.fail(ctx, err, false, 0); err != nil {
					return api.Result{}, api.JobInfo{}, fmt.Errorf("specmpkd: job lost across daemon restarts: %w", err)
				}
				// Recovery pass: mark the submit so the daemon's
				// server.jobs.resubmitted counter records that this job came
				// back via content-addressed resubmission after a restart.
				sctx = WithResubmit(ctx)
				c.resubmits.Add(1)
				continue
			}
		}
		if info.State != api.StateDone {
			return api.Result{}, info, &JobError{Info: info}
		}
		var res api.Result
		if err := json.Unmarshal(info.Result, &res); err != nil {
			return api.Result{}, info, fmt.Errorf("specmpkd: bad result payload: %w", err)
		}
		return res, info, nil
	}
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", decodeErr(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Healthz probes daemon liveness. Deliberately retry-free: health probes
// report the instant truth, the prober supplies its own cadence.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.HealthzInfo(ctx)
	return err
}

// HealthzInfo probes daemon liveness and returns the diagnostic payload —
// version (cache-key compatibility), worker pool, and the queue-load fields
// the cluster layer's bounded-load placement consumes. Retry-free, like
// Healthz.
func (c *Client) HealthzInfo(ctx context.Context) (api.Healthz, error) {
	var h api.Healthz
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// CachedResult probes the daemon's content-addressed result cache for key
// (GET /v1/cache/{key}) without submitting a job: the canonical result bytes
// verbatim on a hit, ok=false on a miss. Deliberately single-attempt — a
// failed probe just means the caller simulates, so retrying it would only
// add latency to the miss path.
func (c *Client) CachedResult(ctx context.Context, key string) (json.RawMessage, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	if sc := otrace.FromContext(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	}
	if resp.StatusCode/100 != 2 {
		return nil, false, decodeErr(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return json.RawMessage(b), true, nil
}
