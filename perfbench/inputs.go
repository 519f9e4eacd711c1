package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"specmpk/internal/funcsim"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// job is one request the benchmark sends, with the outcome it must produce.
type job struct {
	spec api.JobSpec
	// due is the open-loop send time, as an offset from the timed phase's
	// start; step is the index of the rate step it belongs to. Closed-loop
	// jobs leave both zero.
	due  time.Duration
	step int
	// model marks the fixed, time-independent subset of jobs the model.*
	// metrics are computed over, so that they repeat exactly for one seed.
	model bool
	want  expect
}

// expect is what a correct answer looks like.
type expect struct {
	// key is the spec's content address as the api package computes it;
	// the daemon must answer under the same key.
	key  string
	stop string // required stop reason
	// insts is the instruction count of a funcsim run of the same program
	// (0 = not checked: cycle-budgeted jobs stop before the program ends).
	insts uint64
	// budget is the cycle budget a cycle_limit answer must stop exactly at.
	budget uint64
	// fullCPI is the full-fidelity CPI of the same spec (sampled jobs only).
	fullCPI float64
}

// mix hashes its arguments into one well-spread 64-bit value (splitmix64
// steps). Every input the benchmark derives from its seed goes through it,
// so one seed always yields the same programs, keys and schedule.
func mix(vals ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// progSeed turns a hash into a positive program seed (0 would select the
// canonical, unseeded program).
func progSeed(h uint64) int64 { return int64(h>>34) + 1 }

// Streams of the seed hash, one per kind of derived input.
const (
	streamPool = iota + 1
	streamKey
	streamCold
	streamDup
	streamSchedule
)

// refPoolSize is how many program seeds per workload the full-fidelity
// reference table covers. Every sampled-sweep program and every program of
// figsweep-full's first passes is drawn from this pool, so each sampled
// answer has a full-fidelity CPI to be checked against.
const refPoolSize = 8

// poolSeed is the program seed a pass uses for workload w: the benchmark seed
// picks each workload's starting point in the pool and passes walk it, so
// the first refPoolSize passes of a workload all use distinct programs.
func poolSeed(seed int64, w string, pass int) int64 {
	start := mix(uint64(seed), streamPool, strHash(w)) % refPoolSize
	return int64((start+uint64(pass))%refPoolSize) + 1
}

func strHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// modeNames returns every registered policy, in registry order.
func modeNames() []string {
	var out []string
	for _, m := range pipeline.RegisteredModes() {
		out = append(out, m.String())
	}
	return out
}

// paperTrio are the policies the paper's figures compare.
var paperTrio = []string{"serialized", "specmpk", "nonsecure"}

// refInsts runs the program of a catalogue spec on the functional simulator
// and returns its dynamic instruction count: the count a full-fidelity run
// to halt must retire.
func refInsts(w string, seed int64) (uint64, error) {
	p, ok := workload.ByName(w)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", w)
	}
	prog, err := p.BuildSeeded(workload.VariantFull, seed)
	if err != nil {
		return 0, err
	}
	m, err := funcsim.New(prog)
	if err != nil {
		return 0, err
	}
	if err := m.Run(math.MaxUint64, 1); err != nil {
		return 0, fmt.Errorf("%s seed %d: reference run: %w", w, seed, err)
	}
	return m.Stats.Insts, nil
}

// sweepPass builds one pass of a closed-loop policy sweep: every catalogue
// workload under every mode in modes, all modes of a workload on one program
// (the figure matrix compares policies on identical programs). The pass is
// ordered mode by mode, so any stretch of it holds every workload about
// equally and a run that ends mid-pass has sent a representative mix.
// sampled selects sampled fidelity with a per-pass clustering seed, so that
// every pass is a distinct spec and re-profiles; full fidelity gives each
// pass distinct program seeds instead.
func sweepPass(seed int64, pass int, modes []string, sampled bool, refs *refTable) ([]*job, error) {
	type prog struct {
		name  string
		seed  int64
		insts uint64
	}
	var progs []prog
	for _, p := range workload.Catalog() {
		ps := poolSeed(seed, p.Name, pass)
		if !sampled && pass >= refPoolSize {
			// Past the pool: fresh programs, so no spec repeats.
			ps = progSeed(mix(uint64(seed), streamPool, strHash(p.Name), uint64(pass)))
		}
		var insts uint64
		if !sampled {
			// Sampled answers are checked against the reference table's
			// CPI instead of an instruction count.
			var err error
			if insts, err = refInsts(p.Name, ps); err != nil {
				return nil, err
			}
		}
		progs = append(progs, prog{p.Name, ps, insts})
	}
	var out []*job
	for _, mode := range modes {
		for _, p := range progs {
			j := &job{
				spec:  api.JobSpec{Workload: p.name, Seed: p.seed, Mode: mode},
				model: pass == 0,
				want:  expect{stop: string(pipeline.StopHalt), insts: p.insts},
			}
			if sampled {
				j.spec.Fidelity = api.FidelitySampled
				j.spec.Sampled = &api.SampledParams{Seed: int64(pass/refPoolSize) + 1}
				j.want.stop = api.StopSampled
				cpi, ok := refs.cpi(p.name, p.seed, mode)
				if !ok {
					return nil, fmt.Errorf("reference table has no %s seed %d %s", p.name, p.seed, mode)
				}
				j.want.fullCPI = cpi
			}
			out = append(out, j)
		}
	}
	return out, nil
}

// Service-mixed shape. The key set is larger than the daemon's 512-entry
// result cache so that hits, misses and LRU evictions all occur; cold jobs
// are cycle-budgeted runs of light (small-footprint) workloads.
const (
	mixKeys       = 768
	mixZipfS      = 1.2
	mixColdCycles = 20_000
	mixRepeatPct  = 75
	mixDupPct     = 5
	lightPages    = 64
)

// mixRates are the offered rates (requests/s) the open loop steps through,
// and mixShare the share of the run each step takes. Step 1 is the
// reference rate the latency metrics are taken at; step 0 warms the result
// cache before it.
var (
	mixRates = []float64{30, 60, 240, 480}
	mixShare = []float64{0.1, 0.7, 0.1, 0.1}
)

const mixRefStep = 1

// lightWorkloads are the catalogue entries with a small heap footprint.
func lightWorkloads() []string {
	var out []string
	for _, p := range workload.Catalog() {
		if p.FootprintPages <= lightPages {
			out = append(out, p.Name)
		}
	}
	return out
}

// mixSchedule builds service-mixed's open-loop schedule for a run of the
// given length: Poisson arrivals at each step's rate, each arrival a Zipf
// draw from the key set (a repeat once the key was drawn before), a fresh
// cold job, or a pair of identical fresh jobs due at the same instant.
func mixSchedule(seed int64, run time.Duration) []*job {
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed), streamSchedule))))
	light := lightWorkloads()
	modes := modeNames()
	// The i-th spec of a stream cycles through every light workload under
	// every mode, so each stretch of popularity ranks, and each stretch of
	// cold jobs, holds the same mix of workloads and policies whatever the
	// seed; the seed picks the programs.
	budgeted := func(stream, i uint64) api.JobSpec {
		n := uint64(len(light))
		return api.JobSpec{
			Workload:  light[i%n],
			Seed:      progSeed(mix(uint64(seed), stream, i)),
			Mode:      modes[(i/n)%uint64(len(modes))],
			MaxCycles: mixColdCycles,
		}
	}
	zipf := rand.NewZipf(rng, mixZipfS, 1, mixKeys-1)

	var out []*job
	var cold, dup uint64
	var start time.Duration
	for step, rate := range mixRates {
		end := start + time.Duration(mixShare[step]*float64(run))
		for t := start; ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= end {
				break
			}
			add := func(spec api.JobSpec) {
				out = append(out, &job{
					spec:  spec,
					due:   t,
					step:  step,
					model: true,
					want:  expect{stop: string(pipeline.StopCycleLimit), budget: mixColdCycles},
				})
			}
			switch r := rng.Intn(100); {
			case r < mixRepeatPct:
				add(budgeted(streamKey, zipf.Uint64()))
			case r < mixRepeatPct+mixDupPct:
				spec := budgeted(streamDup, dup)
				dup++
				add(spec)
				add(spec)
			default:
				add(budgeted(streamCold, cold))
				cold++
			}
		}
		start = end
	}
	return out
}
