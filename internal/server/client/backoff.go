package client

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy shapes the client's resilience layer: how many times a
// logical operation is attempted and how the delays between attempts grow.
// The zero value means the defaults — callers only set fields they care
// about.
//
// Retries are safe across the whole API because every operation is
// idempotent by construction: Submit is content-addressed (resubmitting a
// spec attaches to the cache, an in-flight execution, or starts the same
// deterministic run), Job/Events are reads, and Cancel of a terminal job is
// a no-op.
type RetryPolicy struct {
	// MaxAttempts bounds the attempts of one logical operation between two
	// points of forward progress, first attempt included (0 = 6). A Submit,
	// Job, Cancel, Events or Wait call is one operation; so is a whole Run,
	// whose submit retries, status retries, stream reconnects and
	// post-restart resubmissions all draw from the same budget.
	MaxAttempts int
	// BaseDelay is the first backoff step (0 = 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = 5s).
	MaxDelay time.Duration
	// Jitter supplies the randomness spreading delays inside their window;
	// each call returns a value in [0, 1). nil = a deterministic default:
	// a fixed base seed decorrelated per backoff instance, so concurrent
	// clients in one process still spread out but a test run's delay
	// sequence is reproducible. Calls are serialized by the backoff's lock.
	Jitter func() float64
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 6
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 100 * time.Millisecond
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 5 * time.Second
}

// backoff produces capped exponential delays with jitter: the nth delay is
// base·2ⁿ capped at max, then jittered to [d/2, d) so a herd of clients
// re-polling one daemon spreads out instead of thundering in lockstep.
type backoff struct {
	policy RetryPolicy

	mu      sync.Mutex
	jitter  func() float64
	attempt int
}

// backoffSeq numbers backoff instances process-wide; the default jitter
// stream is seeded from it, never from the clock.
var backoffSeq atomic.Uint64

// defaultJitter is the deterministic jitter stream for the nth backoff
// instance in this process: a fixed base seed decorrelated by n (golden-ratio
// multiplier), so instance n's delay sequence is identical run to run while
// concurrent instances still desynchronize from each other.
func defaultJitter(n uint64) func() float64 {
	return rand.New(rand.NewSource(int64(n * 0x9E3779B97F4A7C15))).Float64
}

func newBackoff(p RetryPolicy) *backoff {
	jitter := p.Jitter
	if jitter == nil {
		jitter = defaultJitter(backoffSeq.Add(1))
	}
	return &backoff{policy: p, jitter: jitter}
}

// next returns the coming delay and advances the attempt counter.
func (b *backoff) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.policy.base()
	for i := 0; i < b.attempt && d < b.policy.max(); i++ {
		d *= 2
	}
	if d > b.policy.max() {
		d = b.policy.max()
	}
	b.attempt++
	// Jitter to [d/2, d].
	return d/2 + time.Duration(b.jitter()*float64(d/2+1))
}

// reset restarts the schedule — call after forward progress so one slow
// stretch does not inflate every later delay.
func (b *backoff) reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}

// sleep blocks for the next delay (or explicit, when > 0 — a server's
// Retry-After overrides the schedule) or until ctx is cancelled.
func (b *backoff) sleep(ctx context.Context, explicit time.Duration) error {
	d := explicit
	if d <= 0 {
		d = b.next()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// budget is one logical operation's retry allowance: a single backoff
// schedule and failure count shared by every request the operation makes.
// Forward progress (a delivered event) resets it, so a long job survives
// any number of isolated stream drops, while an operation that keeps
// failing gives up after RetryPolicy.MaxAttempts failed attempts.
type budget struct {
	addr  string
	bo    *backoff
	max   int
	fails int
	// connOnly records that every failure since the last progress was
	// connection-level — the peer-down verdict an exhausted budget carries.
	connOnly bool
}

func (c *Client) newBudget() *budget {
	return &budget{addr: c.base, bo: newBackoff(c.Retry), max: c.Retry.attempts(), connOnly: true}
}

// fail records a failed attempt (conn: it got no HTTP response at all). If
// the budget allows another attempt it sleeps out the backoff — or the
// server's retryAfter, when positive — and returns nil. Otherwise it returns
// the error to surface: a PeerDownError when every failure since the last
// progress was connection-level, else err.
func (b *budget) fail(ctx context.Context, err error, conn bool, retryAfter time.Duration) error {
	b.fails++
	b.connOnly = b.connOnly && conn
	if b.fails >= b.max {
		if b.connOnly {
			return &PeerDownError{Addr: b.addr, Attempts: b.fails, Err: err}
		}
		return err
	}
	if b.bo.sleep(ctx, retryAfter) != nil {
		return err
	}
	return nil
}

// spent reports whether the budget has no attempts left.
func (b *budget) spent() bool { return b.fails >= b.max }

// progress resets the budget after forward progress.
func (b *budget) progress() {
	b.fails = 0
	b.connOnly = true
	b.bo.reset()
}
