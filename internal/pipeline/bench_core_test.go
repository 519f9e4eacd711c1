package pipeline_test

import (
	"testing"

	"specmpk/internal/pipeline"
	"specmpk/internal/workload"
)

// Core hot-path micro-benchmarks (`make bench-core`). BenchmarkMachineStep
// prices one pipeline cycle — the unit the refactor optimizes — and reports
// allocations so a reintroduced per-cycle allocation is visible directly in
// allocs/op; TestStepDoesNotAllocate gates the same property.
// BenchmarkMachineRun prices a whole bounded simulation including
// construction, the granularity of a service job. BenchmarkNew prices
// construction alone.

// stepWorkloads are the workloads BenchmarkMachineStep and
// TestStepDoesNotAllocate drive: the densest WRPKRU stream, a branchy
// mixed one and a memory-bound one.
var stepWorkloads = []string{"548.exchange2_r", "520.omnetpp_r", "505.mcf_r"}

func benchProgram(b *testing.B, wl string) workload.Profile {
	b.Helper()
	p, ok := workload.ByName(wl)
	if !ok {
		b.Fatalf("unknown workload %q", wl)
	}
	return p
}

// TestStepDoesNotAllocate asserts the cycle loop allocates nothing, under
// every registered policy. It counts the allocations of whole blocks of Steps
// (testing.AllocsPerRun with one measured run per block, after its own
// warm-up run), so a single allocation anywhere in a block fails — a
// per-Step average would round an occasional allocation down to zero. The
// one allocation Step may make is the simulated memory materialising a
// frame on the first store to a page (and growing its frame map); blocks
// that touch a new page are skipped. Half of each run is AllocsPerRun's
// warm-up blocks, and 520.omnetpp_r touches a new page about every
// thousand cycles, so at least a quarter of each run must end up measured.
func TestStepDoesNotAllocate(t *testing.T) {
	const block, maxCycles = 250, 100000
	for _, wl := range stepWorkloads {
		p, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("unknown workload %q", wl)
		}
		prog, err := p.Build(workload.VariantFull)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range pipeline.RegisteredModes() {
			t.Run(wl+"/"+mode.String(), func(t *testing.T) {
				cfg := pipeline.DefaultConfig()
				cfg.Mode = mode
				m, err := pipeline.New(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				measured := 0
				for !m.Halted() && m.Fault() == nil && m.Stats.Cycles < maxCycles {
					var frames0, frames1, steps int
					allocs := testing.AllocsPerRun(1, func() {
						frames0, steps = m.AS.Phys.FrameCount(), 0
						for ; steps < block && !m.Halted(); steps++ {
							m.Step()
						}
						frames1 = m.AS.Phys.FrameCount()
					})
					if frames1 != frames0 {
						continue
					}
					if allocs != 0 {
						t.Fatalf("%v allocations in %d Steps ending at cycle %d, want 0",
							allocs, steps, m.Stats.Cycles)
					}
					measured += steps
				}
				if m.Fault() != nil {
					t.Fatalf("fault: %v", m.Fault())
				}
				if total := int(m.Stats.Cycles); measured < total/4 {
					t.Fatalf("only %d of %d Steps measured", measured, total)
				}
			})
		}
	}
}

func BenchmarkMachineStep(b *testing.B) {
	for _, wl := range stepWorkloads {
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
