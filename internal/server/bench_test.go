package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specmpk/internal/server/api"
)

// BenchmarkSubmitCacheHit measures the cache-hit path at saturation: every
// parallel submitter resubmits one finished workload spec, so each request
// is a hit answered with the stored result. "direct" calls Submit; "http"
// goes through the job endpoint and reads the whole reply. ns/op is the
// daemon's cost per hit with GOMAXPROCS submitters.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s := New(Options{Workers: 1, EventInterval: 1000})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	spec := api.JobSpec{Workload: "541.leela_r", Mode: "specmpk", MaxCycles: 20_000}
	first, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		info, _ := s.Job(first.ID)
		if info.State == api.StateDone {
			break
		}
		if api.Terminal(info.State) || time.Now().After(deadline) {
			b.Fatalf("warm-up job ended %q", info.State)
		}
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				info, err := s.Submit(spec)
				if err != nil || !info.Cached || len(info.Result) == 0 {
					b.Errorf("resubmit: cached=%v err=%v", info.Cached, err)
					return
				}
			}
		})
	})

	b.Run("http", func(b *testing.B) {
		ts := httptest.NewServer(s)
		defer ts.Close()
		body, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	})
}
