package experiments

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/workload"
)

// TestRemoteSimRetriesTransientFailures: the -remote seam must absorb a
// daemon that transiently rejects (503) before accepting, and must not
// retry terminal job failures.
func TestRemoteSimRetriesTransientFailures(t *testing.T) {
	result := api.Result{Key: "k", Version: "test", StopReason: "halt",
		Stats: pipeline.Stats{Cycles: 100, Insts: 50}}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{
			ID: "j-1", State: api.StateDone, Result: resultJSON,
		})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	sim := RemoteSim(c)
	res, err := sim(workload.Profile{Name: "w"}, workload.VariantFull, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != 100 {
		t.Fatalf("result stats %+v", res.Stats)
	}
}

// TestRemoteSimOneRetryBudgetPerJob: a daemon that sheds every request
// costs one job exactly MaxAttempts submits — the client's one budget, with
// no outer retry loop multiplying it.
func TestRemoteSimOneRetryBudgetPerJob(t *testing.T) {
	const n = 3
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: n, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, err := RemoteSim(c)(workload.Profile{Name: "w"}, workload.VariantFull, pipeline.DefaultConfig()); err == nil {
		t.Fatal("job against an always-503 daemon succeeded")
	}
	if got := calls.Load(); got != n {
		t.Fatalf("daemon saw %d submits for one job, want %d (one retry budget)", got, n)
	}
}

// TestRemoteSimDoesNotRetryTerminalFailures: a failed job (bad spec, panic,
// deadline) is deterministic — re-running reproduces it, so RemoteSim must
// surface it after one attempt.
func TestRemoteSimDoesNotRetryTerminalFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobInfo{
			ID: "j-1", State: api.StateFailed, Error: "deadline: wall-clock budget (10 ms) exceeded at cycle 42",
		})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	sim := RemoteSim(c)
	if _, err := sim(workload.Profile{Name: "w"}, workload.VariantFull, pipeline.DefaultConfig()); err == nil {
		t.Fatal("terminal failure succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("daemon saw %d submits for a terminal failure, want 1", got)
	}
}

// TestClusterSimDegradesToLocal: with every cluster peer down, ClusterSim
// must fall to in-process simulation and still deliver a real result — the
// degradation ladder's bottom rung, so a sweep survives a full outage.
func TestClusterSimDegradesToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real local simulation")
	}
	// Two daemons that are already gone: bind, record, close.
	var dead []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead = append(dead, ts.URL)
		ts.Close()
	}
	co, err := cluster.New(cluster.Options{
		Peers:         dead,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		Retry:         client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	co.ProbeNow()
	co.ProbeNow() // two failed rounds mark every peer down

	p, ok := workload.ByName("520.omnetpp_r")
	if !ok {
		t.Fatal("workload 520.omnetpp_r missing")
	}
	cfg := pipeline.DefaultConfig()
	res, err := ClusterSim(co)(p, workload.VariantFull, cfg)
	if err != nil {
		t.Fatalf("degraded cell failed: %v", err)
	}
	want, err := LocalSim(p, workload.VariantFull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != want.Stats {
		t.Fatalf("degraded stats %+v != local %+v", res.Stats, want.Stats)
	}
}
