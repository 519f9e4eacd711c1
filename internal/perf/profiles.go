// Package perf holds the self-profiling hook the CLIs share: -cpuprofile and
// -memprofile captures of the simulator process itself. The repository's
// benchmark, which measures how fast the simulator simulates, is perfbench.
package perf

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles arms the -cpuprofile/-memprofile capture shared by
// specmpk-sim and specmpk-bench. Both output files are created up front —
// matching the CLIs' fail-on-bad-path-before-simulating contract — and the
// returned stop function finalizes them: it stops the CPU profile and writes
// the heap profile (after a GC, so live objects dominate, not garbage).
// Either path may be empty; with both empty the stop function is a no-op.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF, memF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		memF, err = os.Create(memPath)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuF != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuF.Close())
		}
		if memF != nil {
			runtime.GC()
			errs = append(errs, pprof.WriteHeapProfile(memF), memF.Close())
		}
		return errors.Join(errs...)
	}, nil
}
