package otrace

import (
	"sync"
	"time"
)

// SpanEvent is one timestamped occurrence inside a span — a fault injection
// firing, a panic being contained, a deadline expiring.
type SpanEvent struct {
	Time  time.Time      `json:"time"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanData is a completed span as stored in the flight recorder and rendered
// by the exporters. IDs are hex strings so a dump is directly greppable
// against log lines and traceparent headers.
type SpanData struct {
	TraceID  string    `json:"traceID"`
	SpanID   string    `json:"spanID"`
	ParentID string    `json:"parentID,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	// DurMS is End-Start in milliseconds — the same float64 the matching
	// server.latency.* histogram observes, where one exists.
	DurMS  float64        `json:"durMS"`
	Status string         `json:"status,omitempty"` // "" = ok, "error"
	Attrs  map[string]any `json:"attrs,omitempty"`
	Events []SpanEvent    `json:"events,omitempty"`
}

// Span is one in-progress lifecycle stage. Obtain from Recorder.StartSpan;
// a nil *Span (the disarmed case) accepts every method as a no-op. A span is
// recorded into its recorder's ring when End/EndAt is first called; later
// End calls and post-End mutations are ignored (mirroring the
// single-observation guards on the latency histograms).
type Span struct {
	rec *Recorder
	sc  SpanContext

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Context returns the span's propagation context (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as a hex string ("" when nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.Trace.String()
}

// SetAttr sets one attribute. No-op when nil or already ended.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 8)
	}
	s.data.Attrs[key] = v
}

// SetError marks the span's status as error with msg as the "error"
// attribute. No-op when nil or already ended.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.data.Status = "error"
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, 8)
	}
	s.data.Attrs["error"] = msg
}

// Event appends a timestamped event with alternating key/value attribute
// pairs. No-op when nil or already ended.
func (s *Span) Event(name string, kv ...any) {
	if s == nil {
		return
	}
	ev := SpanEvent{Time: time.Now(), Name: name}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			if k, ok := kv[i].(string); ok {
				ev.Attrs[k] = kv[i+1]
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.data.Events = append(s.data.Events, ev)
}

// End completes the span now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt completes the span at t and records it into the flight recorder.
// Exactly the first call takes effect, so every seam can end defensively.
// Callers that also observe a latency histogram derive t from the same
// measured duration, which is what makes span and histogram provably agree.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = t
	s.data.DurMS = float64(t.Sub(s.data.Start).Nanoseconds()) / 1e6
	sd := s.data
	s.mu.Unlock()
	s.rec.record(sd)
}

// Recorder is the bounded in-memory span flight recorder: completed spans
// land in a ring, oldest overwritten first, dumpable while the daemon runs
// (GET /v1/debug/spans). A nil *Recorder is the disarmed state: StartSpan
// returns nil and recording costs one nil check.
type Recorder struct {
	mu      sync.Mutex
	buf     []SpanData
	start   int // index of the oldest span
	n       int
	dropped uint64
}

// NewRecorder builds a flight recorder holding up to capacity completed
// spans; capacity <= 0 returns nil (tracing disarmed).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	return &Recorder{buf: make([]SpanData, capacity)}
}

// StartSpan starts a span now. See StartSpanAt.
func (r *Recorder) StartSpan(parent SpanContext, name string) *Span {
	return r.StartSpanAt(parent, name, time.Now())
}

// StartSpanAt starts a span at the given time, joined onto parent's trace
// when parent is valid and rooting a fresh trace otherwise. Returns nil when
// the recorder is nil (disarmed), so instrumented seams need no guards.
func (r *Recorder) StartSpanAt(parent SpanContext, name string, at time.Time) *Span {
	if r == nil {
		return nil
	}
	sc := SpanContext{Trace: parent.Trace, Span: NewSpanID()}
	parentID := ""
	if parent.Trace.IsZero() {
		sc.Trace = NewTraceID()
	} else if !parent.Span.IsZero() {
		parentID = parent.Span.String()
	}
	return &Span{
		rec: r,
		sc:  sc,
		data: SpanData{
			TraceID:  sc.Trace.String(),
			SpanID:   sc.Span.String(),
			ParentID: parentID,
			Name:     name,
			Start:    at,
		},
	}
}

// record pushes one completed span into the ring, evicting the oldest when
// full.
func (r *Recorder) record(sd SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = sd
		r.n++
		return
	}
	r.buf[r.start] = sd
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Spans returns the recorded spans, oldest first.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of resident spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many spans were overwritten since start.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// FilterSpans narrows spans to one request's worth: spans whose trace ID is
// traceID, plus — when jobID is set — every span of any trace that contains
// a span carrying the attribute job_id == jobID (a job's stage spans share
// its trace but only the root carries the id). Empty filters match all.
func FilterSpans(spans []SpanData, traceID, jobID string) []SpanData {
	if traceID == "" && jobID == "" {
		return spans
	}
	want := make(map[string]bool)
	if traceID != "" {
		want[traceID] = true
	}
	if jobID != "" {
		for _, sd := range spans {
			if sd.Attrs != nil && sd.Attrs["job_id"] == jobID {
				want[sd.TraceID] = true
			}
		}
	}
	out := make([]SpanData, 0, 16)
	for _, sd := range spans {
		if want[sd.TraceID] {
			out = append(out, sd)
		}
	}
	return out
}
