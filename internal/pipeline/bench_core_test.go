package pipeline_test

import (
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// Core hot-path micro-benchmarks (`make bench-core`). BenchmarkMachineStep
// prices one pipeline cycle — the unit the refactor optimizes — and reports
// allocations so a reintroduced per-cycle allocation is visible directly in
// allocs/op. BenchmarkMachineRun prices a whole bounded simulation including
// construction, the granularity the perf meta-benchmark (specmpk-bench perf)
// measures end to end. BenchmarkNew prices construction alone.

func benchProgram(b *testing.B, wl string) workload.Profile {
	b.Helper()
	p, ok := workload.ByName(wl)
	if !ok {
		b.Fatalf("unknown workload %q", wl)
	}
	return p
}

func BenchmarkMachineStep(b *testing.B) {
	for _, wl := range []string{"548.exchange2_r", "520.omnetpp_r", "505.mcf_r"} {
		for _, mode := range []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeNonSecure, pipeline.ModeSpecMPK} {
			b.Run(wl+"/"+mode.String(), func(b *testing.B) {
				prog, err := benchProgram(b, wl).Build(workload.VariantFull)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Mode = mode
				m, err := pipeline.New(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if m.Halted() || m.Fault() != nil {
						b.StopTimer()
						m, _ = pipeline.New(cfg, prog)
						b.StartTimer()
					}
					m.Step()
				}
			})
		}
	}
}

func BenchmarkMachineRun(b *testing.B) {
	const cycles = 200000
	for _, wl := range []string{"548.exchange2_r", "520.omnetpp_r"} {
		for _, mode := range []pipeline.Mode{pipeline.ModeNonSecure, pipeline.ModeSpecMPK} {
			b.Run(wl+"/"+mode.String(), func(b *testing.B) {
				prog, err := benchProgram(b, wl).Build(workload.VariantFull)
				if err != nil {
					b.Fatal(err)
				}
				cfg := pipeline.DefaultConfig()
				cfg.Mode = mode
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := pipeline.New(cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Run(cycles); err != nil && err != pipeline.ErrCycleLimit {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNew prices building one Table III machine. Its B/op is the
// memory a server worker allocates per job: caches, predictor tables,
// window and scheduler state, and the loaded program.
func BenchmarkNew(b *testing.B) {
	prog, err := benchProgram(b, "548.exchange2_r").Build(workload.VariantFull)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if newSink, err = pipeline.New(cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// newSink keeps BenchmarkNew's machines observable so the compiler cannot
// drop the construction.
var newSink *pipeline.Machine
