package experiments

import (
	"context"
	"errors"
	"fmt"

	"specmpk/internal/cluster"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/server/client"
	"specmpk/internal/workload"
)

// RemoteSim adapts a specmpkd client into the SimFunc seam: one simulation
// request becomes one daemon job. The daemon dedups identical in-flight
// specs and serves repeats from its result cache, so a sweep whose
// experiments share baselines costs each unique spec exactly once.
//
// Failure taxonomy: transient errors (daemon overloaded or restarting) are
// retried inside client.Run, on the job's one retry budget; terminal job
// failures — bad specs, wall-clock deadline exceeded, a panicking
// simulation — are not, because re-running the same deterministic spec
// reproduces them. A sweep loses exactly the jobs that outlived their
// budget, reported per job by forEach's joined error.
func RemoteSim(c *client.Client) SimFunc {
	return func(p workload.Profile, v workload.Variant, cfg pipeline.Config) (SimResult, error) {
		res, _, err := c.Run(context.Background(), api.SpecFor(p.Name, v, cfg))
		return remoteResult(p, v, cfg, res, err)
	}
}

// remoteResult maps a remote run's outcome onto the SimFunc contract.
func remoteResult(p workload.Profile, v workload.Variant, cfg pipeline.Config, res api.Result, err error) (SimResult, error) {
	if err != nil {
		return SimResult{}, fmt.Errorf("%s/%v/%v: %w", p.Name, v, cfg.Mode, err)
	}
	// Local runs treat a budget-bounded (non-halting) workload as an error;
	// mirror that so remote sweeps fail the same way.
	if res.StopReason != string(pipeline.StopHalt) {
		return SimResult{}, fmt.Errorf("%s/%v/%v: remote run stopped with %q",
			p.Name, v, cfg.Mode, res.StopReason)
	}
	return SimResult{Stats: res.Stats, Metrics: res.Metrics}, nil
}

// ClusterSim adapts a cluster coordinator into the SimFunc seam: each
// simulation request is consistent-hash placed on the peer owning its
// content-addressed key, with the coordinator's peer-cache lookup, hedging
// and failover in front. When every peer is down the coordinator reports
// ErrNoPeers and the job falls to the bottom rung of the degradation
// ladder — in-process local simulation — so a sweep survives a full cluster
// outage, just slower.
func ClusterSim(co *cluster.Coordinator) SimFunc {
	return func(p workload.Profile, v workload.Variant, cfg pipeline.Config) (SimResult, error) {
		res, _, err := co.Run(context.Background(), api.SpecFor(p.Name, v, cfg))
		if errors.Is(err, cluster.ErrNoPeers) {
			return LocalSim(p, v, cfg)
		}
		return remoteResult(p, v, cfg, res, err)
	}
}
