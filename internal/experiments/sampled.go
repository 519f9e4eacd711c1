package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/simpoint"
	"specmpk/internal/workload"
)

// SampledRow is one workload×policy cell of the sampled-vs-full comparison:
// the SimPoint extrapolation, the full-fidelity truth it approximates, the
// measured error against the predicted bound, and the wall-clock speedup the
// sampling bought.
type SampledRow struct {
	Workload    string  `json:"workload"`
	Mode        string  `json:"mode"`
	SampledCPI  float64 `json:"sampledCPI"`
	FullCPI     float64 `json:"fullCPI"`
	ErrPct      float64 `json:"errPct"`   // measured: 100*(sampled-full)/full
	BoundPct    float64 `json:"boundPct"` // predicted: 100*ErrorBound
	WithinBound bool    `json:"withinBound"`
	SampledMS   float64 `json:"sampledMS"` // profile share + interval sims
	FullMS      float64 `json:"fullMS"`
	Speedup     float64 `json:"speedup"` // FullMS / SampledMS (0 = not measured)
}

// sampledModes is the default policy set for the sampled experiment: the
// paper's three headline machines. -modes overrides.
func (r Runner) sampledModes() []pipeline.Mode {
	if len(r.Modes) > 0 {
		return r.Modes
	}
	return []pipeline.Mode{pipeline.ModeSerialized, pipeline.ModeSpecMPK, pipeline.ModeNonSecure}
}

func msf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Sampled regenerates the sampled-vs-full validation table. Locally it runs
// the simpoint plan machinery in-process (one profile per workload, shared
// across the policy sweep — the same amortization the daemon's profile cache
// provides, so the profiling cost is split evenly across the modes when
// computing per-cell speedups). With a Runner.Client it submits
// sampled-fidelity jobs to a daemon instead, exercising the whole service
// path including parallel interval fan-out and the profile cache.
func Sampled(r Runner) ([]SampledRow, error) {
	if r.Client != nil {
		return sampledRemote(r)
	}
	modes := r.sampledModes()
	cat := r.catalog()
	perWL := make([][]SampledRow, len(cat))
	err := forEach(r.workers(), indices(cat), func(i int) error {
		p := cat[i]
		prog, err := p.Build(workload.VariantFull)
		if err != nil {
			return err
		}
		scfg := simpoint.DefaultConfig()
		pt0 := time.Now()
		plan, err := simpoint.BuildPlan(prog, scfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		profileShare := msf(time.Since(pt0)) / float64(len(modes))
		for _, mode := range modes {
			cfg := modeConfig(mode)
			st0 := time.Now()
			stats := make([]pipeline.Stats, len(plan.Points))
			for j := range plan.Points {
				if stats[j], err = plan.SimulatePoint(j, cfg, prog); err != nil {
					return fmt.Errorf("%s/%v point %d: %w", p.Name, mode, j, err)
				}
			}
			est, err := plan.Estimate(stats)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", p.Name, mode, err)
			}
			sampledMS := profileShare + msf(time.Since(st0))

			ft0 := time.Now()
			m, err := pipeline.New(cfg, prog)
			if err != nil {
				return err
			}
			if err := m.Run(500_000_000); err != nil {
				return fmt.Errorf("%s/%v full run: %w", p.Name, mode, err)
			}
			fullMS := msf(time.Since(ft0))
			fullCPI := float64(m.Stats.Cycles) / float64(m.Stats.Insts)

			row := SampledRow{
				Workload:   label(p),
				Mode:       mode.String(),
				SampledCPI: est.CPI,
				FullCPI:    fullCPI,
				ErrPct:     100 * (est.CPI - fullCPI) / fullCPI,
				BoundPct:   100 * est.ErrorBound,
				SampledMS:  sampledMS,
				FullMS:     fullMS,
				Speedup:    fullMS / sampledMS,
			}
			row.WithinBound = row.ErrPct >= -row.BoundPct && row.ErrPct <= row.BoundPct
			perWL[i] = append(perWL[i], row)
		}
		return nil
	})
	var rows []SampledRow
	for _, rs := range perWL {
		rows = append(rows, rs...)
	}
	return rows, err
}

// sampledRemote runs the table through a daemon: one sampled-fidelity job
// and one full-fidelity job per cell. Wall times come from the daemon's
// JobInfo; a cell answered from the result cache never ran, so its speedup
// is reported as 0 (rendered "-") rather than a fabricated ratio.
func sampledRemote(r Runner) ([]SampledRow, error) {
	modes := r.sampledModes()
	cat := r.catalog()
	perWL := make([][]SampledRow, len(cat))
	err := forEach(r.workers(), indices(cat), func(i int) error {
		p := cat[i]
		for _, mode := range modes {
			sSpec := api.JobSpec{Workload: p.Name, Mode: mode.String(), Fidelity: api.FidelitySampled}
			sRes, sInfo, err := r.Client.Run(context.Background(), sSpec)
			if err != nil {
				return fmt.Errorf("%s/%v sampled: %w", p.Name, mode, err)
			}
			if sRes.Sampled == nil {
				return fmt.Errorf("%s/%v: daemon returned no sampled section", p.Name, mode)
			}
			fSpec := api.JobSpec{Workload: p.Name, Mode: mode.String()}
			fRes, fInfo, err := r.Client.Run(context.Background(), fSpec)
			if err != nil {
				return fmt.Errorf("%s/%v full: %w", p.Name, mode, err)
			}
			if fRes.Stats.Insts == 0 {
				return fmt.Errorf("%s/%v full: retired no instructions", p.Name, mode)
			}
			fullCPI := float64(fRes.Stats.Cycles) / float64(fRes.Stats.Insts)
			row := SampledRow{
				Workload:   label(p),
				Mode:       mode.String(),
				SampledCPI: sRes.Sampled.CPI,
				FullCPI:    fullCPI,
				ErrPct:     100 * (sRes.Sampled.CPI - fullCPI) / fullCPI,
				BoundPct:   100 * sRes.Sampled.ErrorBound,
			}
			if !sInfo.Cached && !fInfo.Cached {
				row.SampledMS = sInfo.WallMS
				row.FullMS = fInfo.WallMS
				if sInfo.WallMS > 0 {
					row.Speedup = fInfo.WallMS / sInfo.WallMS
				}
			}
			row.WithinBound = row.ErrPct >= -row.BoundPct && row.ErrPct <= row.BoundPct
			perWL[i] = append(perWL[i], row)
		}
		return nil
	})
	var rows []SampledRow
	for _, rs := range perWL {
		rows = append(rows, rs...)
	}
	return rows, err
}

// RenderSampled prints the validation table plus the aggregate the
// methodology is judged by: every cell's measured error inside its bound,
// and the wall-clock it saved.
func RenderSampled(rows []SampledRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled simulation: SimPoint extrapolation vs full fidelity (paper §VII methodology)\n")
	fmt.Fprintf(&b, "%-24s %-12s %9s %9s %8s %8s %7s %9s\n",
		"workload", "mode", "sampled", "full", "err%", "bound%", "ok", "speedup")
	within, speedSum, speedN := 0, 0.0, 0
	for _, r := range rows {
		ok := "yes"
		if !r.WithinBound {
			ok = "NO"
		} else {
			within++
		}
		speed := "-"
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%8.1fx", r.Speedup)
			speedSum += r.Speedup
			speedN++
		}
		fmt.Fprintf(&b, "%-24s %-12s %9.4f %9.4f %+7.1f%% %7.1f%% %7s %9s\n",
			r.Workload, r.Mode, r.SampledCPI, r.FullCPI, r.ErrPct, r.BoundPct, ok, speed)
	}
	fmt.Fprintf(&b, "%d/%d cells within their error bound", within, len(rows))
	if speedN > 0 {
		fmt.Fprintf(&b, "; mean wall-clock speedup %.1fx over %d measured cells", speedSum/float64(speedN), speedN)
	}
	b.WriteByte('\n')
	return b.String()
}
