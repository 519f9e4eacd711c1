package otrace

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestIDsNonZeroAndDistinct(t *testing.T) {
	if NewTraceID().IsZero() || NewSpanID().IsZero() {
		t.Fatal("fresh IDs must be non-zero")
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("two trace IDs collided")
	}
	if got := len(NewTraceID().String()); got != 32 {
		t.Fatalf("trace ID hex length = %d, want 32", got)
	}
	if got := len(NewSpanID().String()); got != 16 {
		t.Fatalf("span ID hex length = %d, want 16", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewRoot()
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q is not a version-00 sampled header", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q failed to parse", h)
	}
	if got != sc {
		t.Fatalf("round trip lost identity: %+v != %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := NewRoot().Traceparent()
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		strings.ToUpper(valid),              // uppercase hex is forbidden
		"ff" + valid[2:],                    // version ff is forbidden
		valid + "x",                         // version 00 allows no trailing data
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:], // all-zero trace ID
		valid[:36] + strings.Repeat("0", 16) + "-01", // all-zero span ID
		"0g" + valid[2:], // non-hex version
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
	// A future version may append fields after the flags.
	future := "cc" + valid[2:] + "-extra"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("ParseTraceparent(%q) rejected a valid future-version header", future)
	}
}

func TestContextCarriesSpanContext(t *testing.T) {
	if FromContext(context.Background()).Valid() {
		t.Fatal("empty context yielded a valid span context")
	}
	sc := NewRoot()
	if got := FromContext(ContextWith(context.Background(), sc)); got != sc {
		t.Fatalf("context round trip: got %+v, want %+v", got, sc)
	}
}

func TestNilSpanAndRecorderAreNoOps(t *testing.T) {
	if NewRecorder(0) != nil {
		t.Fatal("NewRecorder(0) must return nil (disarmed)")
	}
	var r *Recorder
	sp := r.StartSpan(SpanContext{}, "x")
	if sp != nil {
		t.Fatal("nil recorder must start nil spans")
	}
	// Every span method must be callable on nil.
	sp.SetAttr("k", 1)
	sp.SetError("boom")
	sp.Event("ev", "a", 2)
	sp.End()
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span leaked an identity")
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder reported contents")
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(8)
	root := r.StartSpan(SpanContext{}, "job")
	if root.Context().Valid() != true {
		t.Fatal("armed recorder produced an invalid span context")
	}
	child := r.StartSpan(root.Context(), "simulate")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child left the parent's trace")
	}
	child.SetAttr("cycles", 42)
	child.Event("fault_injected", "point", "server.worker.simulate")
	child.SetError("boom")
	child.End()
	root.End()
	// Post-End mutations and double End must be ignored.
	child.SetAttr("late", true)
	child.End()

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	c, ro := spans[0], spans[1]
	if c.Name != "simulate" || ro.Name != "job" {
		t.Fatalf("order: got %s, %s; want simulate, job (end order)", c.Name, ro.Name)
	}
	if c.ParentID != ro.SpanID {
		t.Fatalf("child parentID %q != root spanID %q", c.ParentID, ro.SpanID)
	}
	if c.Status != "error" || c.Attrs["error"] != "boom" || c.Attrs["cycles"] != 42 {
		t.Fatalf("child attrs/status wrong: %+v", c)
	}
	if _, ok := c.Attrs["late"]; ok {
		t.Fatal("post-End SetAttr mutated the recorded span")
	}
	if len(c.Events) != 1 || c.Events[0].Name != "fault_injected" ||
		c.Events[0].Attrs["point"] != "server.worker.simulate" {
		t.Fatalf("child events wrong: %+v", c.Events)
	}
}

func TestSpanEndAtAgreesWithDuration(t *testing.T) {
	r := NewRecorder(1)
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	sp := r.StartSpanAt(SpanContext{}, "simulate", start)
	d := 1500 * time.Microsecond
	sp.EndAt(start.Add(d))
	got := r.Spans()[0]
	if got.DurMS != 1.5 {
		t.Fatalf("DurMS = %v, want 1.5 (same duration the histogram observes)", got.DurMS)
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	const cap = 4
	r := NewRecorder(cap)
	for i := 0; i < 10; i++ {
		sp := r.StartSpan(SpanContext{}, fmt.Sprintf("s%d", i))
		sp.End()
	}
	if r.Len() != cap {
		t.Fatalf("Len = %d, want %d", r.Len(), cap)
	}
	if r.Dropped() != 10-cap {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), 10-cap)
	}
	spans := r.Spans()
	for i, sd := range spans {
		want := fmt.Sprintf("s%d", 10-cap+i)
		if sd.Name != want {
			t.Fatalf("spans[%d] = %s, want %s (oldest first)", i, sd.Name, want)
		}
	}
}

func TestFilterSpans(t *testing.T) {
	r := NewRecorder(16)
	// Trace A: a job root (carrying job_id) plus a stage span.
	rootA := r.StartSpan(SpanContext{}, "job")
	rootA.SetAttr("job_id", "j-000001")
	r.StartSpan(rootA.Context(), "simulate").End()
	rootA.End()
	// Trace B: unrelated.
	rootB := r.StartSpan(SpanContext{}, "job")
	rootB.SetAttr("job_id", "j-000002")
	rootB.End()

	all := r.Spans()
	if got := FilterSpans(all, "", ""); len(got) != 3 {
		t.Fatalf("empty filter kept %d of 3", len(got))
	}
	byTrace := FilterSpans(all, rootA.TraceID(), "")
	if len(byTrace) != 2 {
		t.Fatalf("trace filter kept %d, want 2", len(byTrace))
	}
	// A job filter must pull in the whole trace, including stage spans that
	// do not themselves carry job_id.
	byJob := FilterSpans(all, "", "j-000001")
	if len(byJob) != 2 {
		t.Fatalf("job filter kept %d, want 2 (root + stage span)", len(byJob))
	}
	for _, sd := range byJob {
		if sd.TraceID != rootA.TraceID() {
			t.Fatalf("job filter leaked trace %s", sd.TraceID)
		}
	}
	if got := FilterSpans(all, "", "j-999999"); len(got) != 0 {
		t.Fatalf("unknown job matched %d spans", len(got))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				sp := r.StartSpan(SpanContext{}, "s")
				sp.SetAttr("i", i)
				sp.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want full ring (64)", r.Len())
	}
	if r.Dropped() != 8*200-64 {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), 8*200-64)
	}
}
