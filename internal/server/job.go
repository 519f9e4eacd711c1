package server

import (
	"context"
	"sync"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// execution is one actual simulation run. Several jobs can attach to one
// execution: the submit path collapses identical in-flight specs onto the
// primary execution (single-flight), so a sweep hammering the daemon with
// the same request costs one simulation.
type execution struct {
	key  string
	spec api.JobSpec // normalized

	// forwarded marks an execution a cluster coordinator already placed on
	// this node: the worker must simulate it locally, never forward it
	// onward (loop prevention). Set before the execution enters the queue.
	forwarded bool

	// ctx is cancelled by Cancel, by a shutdown deadline, and by publish
	// once the outcome is visible: every execution's context leaves the
	// server's base context when it ends, instead of staying registered
	// there for the daemon's lifetime.
	ctx    context.Context
	cancel context.CancelFunc

	// jobs are the jobs attached to this execution: the primary job and
	// every deduped one. Guarded by Server.mu; onExecutionDone retires them
	// and drops the list.
	jobs []*job

	// queuedAt is when the execution entered the queue (construction time);
	// immutable, so readable without the mutex. started - queuedAt is the
	// queue wait the server.latency.queue_wait_ms histogram observes.
	queuedAt time.Time

	// Tracing. sc is the primary job's span context (zero when tracing is
	// disarmed): every execution-stage span — queue.wait, simulate, marshal —
	// parents onto it, so the whole lifecycle lands in the primary trace.
	// queueSpan opens at enqueue and closes at worker pickup; simSpan is the
	// worker's simulate span. Both are set before the execution becomes
	// reachable by the worker (sc/queueSpan) or only touched by the worker
	// goroutine (simSpan).
	sc        otrace.SpanContext
	queueSpan *otrace.Span
	simSpan   *otrace.Span

	// traceMu guards the cross-goroutine trace annotations below: the worker
	// writes them mid-run while Cancel/onExecutionDone may read them when
	// ending the attached jobs' spans.
	traceMu    sync.Mutex
	stopReason string
	cacheDisp  string // result-cache disposition: hit|filled|refreshed|skipped_fault|uncacheable|disabled

	mu       sync.Mutex
	state    string
	errMsg   string
	result   packedResult // canonical result JSON, set when state == done
	started  time.Time
	finished time.Time

	// Event stream: a bounded replay buffer plus live subscribers (nil
	// until the first subscribes, and again once terminal). A late
	// subscriber first receives the buffered prefix, then live events.
	events []api.Event
	subs   map[chan api.Event]struct{}
	seq    uint64

	// resolved is the terminal outcome claimed by resolve and not yet (or
	// already) made visible by publish. Between the two the execution still
	// reads as running, so the server can finish its bookkeeping first.
	resolved *outcome
}

// outcome is an execution's terminal result.
type outcome struct {
	state, errMsg string
	result        packedResult
	cycle, insts  uint64
}

// maxBufferedEvents bounds the replay buffer; older progress events are
// dropped (the terminal event is always retained by construction since it
// is published last).
const maxBufferedEvents = 1024

func newExecution(parent context.Context, key string, spec api.JobSpec) *execution {
	ctx, cancel := context.WithCancel(parent)
	return &execution{
		key:      key,
		spec:     spec,
		ctx:      ctx,
		cancel:   cancel,
		queuedAt: time.Now(),
		state:    api.StateQueued,
	}
}

// resolvedExecution builds an already-terminal execution — the cache-hit
// path, where the result exists before any worker is involved.
func resolvedExecution(key string, spec api.JobSpec, result packedResult) *execution {
	ex := newExecution(context.Background(), key, spec)
	ex.cancel()
	ex.state = api.StateDone
	ex.result = result
	ex.finished = time.Now()
	ex.events = append(ex.events, api.Event{Seq: 1, State: api.StateDone, Final: true})
	ex.seq = 1
	return ex
}

// snapshot returns the execution's externally visible state. The result
// stays packed: callers unpack it after the lock is released.
func (ex *execution) snapshot() (state, errMsg string, result packedResult, started, finished time.Time) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.state, ex.errMsg, ex.result, ex.started, ex.finished
}

// start transitions queued -> running and announces it on the event stream.
// It returns false if the execution is already resolved (cancelled while
// queued).
func (ex *execution) start() bool {
	ex.mu.Lock()
	if ex.resolved != nil || api.Terminal(ex.state) {
		ex.mu.Unlock()
		return false
	}
	ex.state = api.StateRunning
	ex.started = time.Now()
	ex.publishLocked(api.Event{State: api.StateRunning})
	ex.mu.Unlock()
	return true
}

// progress publishes one interval snapshot.
func (ex *execution) progress(cycle, insts uint64, ipc float64) {
	ex.mu.Lock()
	ex.publishLocked(api.Event{Cycle: cycle, Insts: insts, IPC: ipc})
	ex.mu.Unlock()
}

// resolve claims the terminal transition for o exactly once — the worker and
// Cancel race for it — and reports whether this call won. The outcome stays
// invisible until publish, so the winner records the job's spans, metrics
// and cache fill before any waiter can observe the terminal state.
func (ex *execution) resolve(o outcome) bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.resolved != nil || api.Terminal(ex.state) {
		return false
	}
	ex.resolved = &o
	return true
}

// terminal returns the resolved terminal state and error message.
func (ex *execution) terminal() (state, errMsg string) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.resolved == nil {
		return ex.state, ex.errMsg
	}
	return ex.resolved.state, ex.resolved.errMsg
}

// publish makes the resolved outcome visible: it sets the terminal state,
// publishes the final event, closes every subscriber and cancels the
// execution's context. Idempotent, so the worker pool's panic path can call
// it whether or not publishing happened.
func (ex *execution) publish() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	o := ex.resolved
	if o == nil || api.Terminal(ex.state) {
		return
	}
	ex.state = o.state
	ex.errMsg = o.errMsg
	ex.result = o.result
	ex.finished = time.Now()
	ex.publishLocked(api.Event{State: o.state, Cycle: o.cycle, Insts: o.insts, Final: true})
	// Nothing runs under the context any more; cancelling it before the
	// subscribers close means a waiter that sees the close sees it ended.
	ex.cancel()
	for ch := range ex.subs {
		close(ch)
	}
	ex.subs = nil // subscribe replays and closes on a terminal execution
}

// publishLocked appends to the replay buffer and fans out to subscribers.
// A subscriber that cannot keep up loses intermediate progress events (its
// channel send would block) — the final state always arrives because publish
// closes the channel after the terminal event is buffered.
func (ex *execution) publishLocked(ev api.Event) {
	ex.seq++
	ev.Seq = ex.seq
	ex.events = append(ex.events, ev)
	if len(ex.events) > maxBufferedEvents {
		ex.events = ex.events[len(ex.events)-maxBufferedEvents:]
	}
	for ch := range ex.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns a channel replaying the buffered events and then
// streaming live ones; the channel closes when the execution finishes.
// The returned cancel detaches early.
func (ex *execution) subscribe() (<-chan api.Event, func()) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ch := make(chan api.Event, len(ex.events)+maxBufferedEvents)
	for _, ev := range ex.events {
		ch <- ev
	}
	if api.Terminal(ex.state) {
		close(ch)
		return ch, func() {}
	}
	if ex.subs == nil {
		ex.subs = make(map[chan api.Event]struct{})
	}
	ex.subs[ch] = struct{}{}
	return ch, func() {
		ex.mu.Lock()
		defer ex.mu.Unlock()
		if _, ok := ex.subs[ch]; ok {
			delete(ex.subs, ch)
			close(ch)
		}
	}
}

// setTrace records the worker-side trace annotations for the job spans.
func (ex *execution) setTrace(stopReason, cacheDisp string) {
	ex.traceMu.Lock()
	defer ex.traceMu.Unlock()
	if stopReason != "" {
		ex.stopReason = stopReason
	}
	if cacheDisp != "" {
		ex.cacheDisp = cacheDisp
	}
}

// traceInfo reads the worker-side trace annotations.
func (ex *execution) traceInfo() (stopReason, cacheDisp string) {
	ex.traceMu.Lock()
	defer ex.traceMu.Unlock()
	return ex.stopReason, ex.cacheDisp
}

// job is one accepted submission: a client-visible handle onto an execution.
type job struct {
	id        string
	key       string
	cached    bool
	deduped   bool
	submitted time.Time
	exec      *execution
	// retired marks the job as counted into the retention window and its
	// span closed (guarded by Server.mu), so the panic path's second
	// onExecutionDone cannot retire it twice.
	retired bool

	// traceID is the job's request trace (hex, "" when untraced); span is
	// the job's root span, open from submit to terminal state (nil when the
	// flight recorder is disarmed).
	traceID string
	span    *otrace.Span
}

// info renders the job's current JobInfo. It unpacks the result, so call
// it with no lock held.
func (j *job) info() api.JobInfo {
	state, errMsg, result, started, finished := j.exec.snapshot()
	inf := api.JobInfo{
		ID:          j.id,
		Key:         j.key,
		TraceID:     j.traceID,
		State:       state,
		Cached:      j.cached,
		Deduped:     j.deduped,
		Error:       errMsg,
		SubmittedAt: j.submitted,
		Result:      result.raw(),
	}
	if !started.IsZero() {
		inf.StartedAt = &started
		inf.QueueWaitMS = ms(started.Sub(j.exec.queuedAt))
	}
	if !finished.IsZero() {
		inf.FinishedAt = &finished
		if !started.IsZero() {
			inf.WallMS = ms(finished.Sub(started))
		}
	}
	return inf
}
