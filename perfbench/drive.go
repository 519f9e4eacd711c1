package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specmpk/internal/otrace"
	"specmpk/internal/server"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
)

// workers is the daemon's pool size and the benchmark's sender count: the
// host the benchmark was written for has two cores, and more senders than
// cores would measure the scheduler.
const workers = 2

// daemon is an in-process specmpkd served on a loopback listener, with the
// typed client the benchmark drives it through.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	cl     *client.Client
	served chan error
}

// startDaemon starts a daemon with default options, the benchmark's pool
// size, and a span flight recorder of spanBuffer spans (0 = tracing off).
func startDaemon(spanBuffer int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Options{Workers: workers, SpanBuffer: spanBuffer})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		cl:     client.New(ln.Addr().String()),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Shutdown(ctx); err == nil {
		err = derr
	}
	// The client rides http.DefaultTransport; drop its pooled connections
	// to this daemon so the next one starts from the same state.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// sample is one job as the benchmark saw it.
type sample struct {
	idx int // position in the job list
	j   *job
	// due is when the job was due to be sent (closed loop: when it was
	// sent); sent, submitted and done are when the request left, when
	// Submit returned, and when the final answer arrived.
	due, sent, submitted, done time.Time
	info                       api.JobInfo
	err                        error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s *sample) lag() time.Duration     { return s.sent.Sub(s.due) }

// send submits one job and waits for its answer. With a recorder (traced
// run) it records a client.job span, parent of the daemon's job span via the
// propagated trace context, and client.submit/client.wait spans under it;
// with a nil recorder every span call is a no-op.
func (d *daemon) send(ctx context.Context, rec *otrace.Recorder, s *sample) {
	s.sent = time.Now()
	root := rec.StartSpanAt(otrace.SpanContext{}, "client.job", s.sent)
	if root != nil {
		ctx = otrace.ContextWith(ctx, root.Context())
		root.SetAttr("job", s.idx)
	}
	info, err := d.cl.Submit(ctx, s.j.spec)
	s.submitted = time.Now()
	rec.StartSpanAt(root.Context(), "client.submit", s.sent).EndAt(s.submitted)
	if err == nil && !api.Terminal(info.State) {
		info, err = d.cl.Wait(ctx, info.ID)
		rec.StartSpanAt(root.Context(), "client.wait", s.submitted).EndAt(time.Now())
	}
	s.done = time.Now()
	root.EndAt(s.done)
	s.info, s.err = info, err
}

// jobSource hands out a closed loop's jobs by index, building further sweep
// passes on demand should the pre-built ones run out.
type jobSource struct {
	mu   sync.Mutex
	jobs []*job
	// mandatory jobs are sent even past the deadline: they are the model
	// subset, which must be complete for model.* to repeat.
	mandatory int
	more      func(pass int) ([]*job, error)
	passes    int
}

func (js *jobSource) get(i int) (*job, error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	for i >= len(js.jobs) {
		next, err := js.more(js.passes)
		if err != nil {
			return nil, err
		}
		js.jobs = append(js.jobs, next...)
		js.passes++
	}
	return js.jobs[i], nil
}

// closedLoop runs clients that each send their next job only after the
// previous answer arrived, until the deadline has passed and every mandatory
// job has been sent.
func (d *daemon) closedLoop(ctx context.Context, rec *otrace.Recorder, src *jobSource, deadline time.Time) ([]*sample, error) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		out      []*sample
		firstErr error
		wg       sync.WaitGroup
	)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= src.mandatory && !time.Now().Before(deadline) {
					return
				}
				j, err := src.get(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				s := &sample{idx: i, j: j}
				d.send(ctx, rec, s)
				s.due = s.sent
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// timerSlack is how early a sender wakes from its sleep before a due time;
// it then yields until the time comes. The runtime's timers can fire up to
// about a millisecond late, which would otherwise show up as generator lag
// on every request.
const timerSlack = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends each job at its due time, measured from start, through
// senders that each wait for their answer before taking the next due job.
// A stall therefore makes later jobs leave late; their latency counts from
// when they were due, so the stall shows in the samples instead of
// vanishing from them.
func (d *daemon) openLoop(ctx context.Context, rec *otrace.Recorder, jobs []*job, start time.Time) []*sample {
	out := make([]*sample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				s := &sample{idx: i, j: jobs[i], due: start.Add(jobs[i].due)}
				waitUntil(s.due)
				d.send(ctx, rec, s)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
