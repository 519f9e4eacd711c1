package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"specmpk/internal/pipeline"
	"specmpk/internal/server/api"
	"specmpk/internal/workload"
)

// reference.json holds full-fidelity results for every catalogue workload,
// every program seed of the reference pool and every policy of the paper
// trio: the figsweep-full cells the sampled-sweep answers are checked
// against. Regenerate it with -write-reference after a change that moves
// simulated results.
//
//go:embed reference.json
var referenceJSON []byte

type refCell struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`
	Cycles   uint64 `json:"cycles"`
	Insts    uint64 `json:"insts"`
}

type refTable struct {
	// Version is the simulator version (api.Version) the table was made
	// under; a table from another version is refused.
	Version string    `json:"version"`
	Cells   []refCell `json:"cells"`
	index   map[string]refCell
}

func refID(w string, seed int64, mode string) string { return fmt.Sprintf("%s/%d/%s", w, seed, mode) }

func loadReference() (*refTable, error) {
	var t refTable
	if err := json.Unmarshal(referenceJSON, &t); err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	if t.Version != api.Version {
		return nil, fmt.Errorf("reference table is for simulator %s, this is %s: regenerate it with -write-reference",
			t.Version, api.Version)
	}
	t.index = make(map[string]refCell, len(t.Cells))
	for _, c := range t.Cells {
		t.index[refID(c.Workload, c.Seed, c.Mode)] = c
	}
	return &t, nil
}

func (t *refTable) cpi(w string, seed int64, mode string) (float64, bool) {
	c, ok := t.index[refID(w, seed, mode)]
	if !ok || c.Insts == 0 {
		return 0, false
	}
	return float64(c.Cycles) / float64(c.Insts), true
}

// fullBudget is the daemon's default per-job cycle budget, which
// full-fidelity sweep jobs run under.
const fullBudget = 500_000_000

// simulateFull runs one full-fidelity cell to halt on the pipeline, the way
// the daemon's worker does.
func simulateFull(w string, seed int64, mode string) (refCell, error) {
	spec := api.JobSpec{Workload: w, Seed: seed, Mode: mode}
	norm, err := spec.Normalize()
	if err != nil {
		return refCell{}, err
	}
	cfg, err := norm.MachineConfig()
	if err != nil {
		return refCell{}, err
	}
	prog, err := norm.Program()
	if err != nil {
		return refCell{}, err
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return refCell{}, err
	}
	if err := m.Run(fullBudget); err != nil || m.Stats.Stop != pipeline.StopHalt {
		return refCell{}, fmt.Errorf("%s: stopped with %q: %v", refID(w, seed, mode), m.Stats.Stop, err)
	}
	return refCell{Workload: w, Seed: seed, Mode: mode, Cycles: m.Stats.Cycles, Insts: m.Stats.Insts}, nil
}

// writeReference simulates every reference cell and writes the table.
func writeReference(path string) error {
	var todo []refCell
	for _, p := range workload.Catalog() {
		for seed := int64(1); seed <= refPoolSize; seed++ {
			for _, mode := range paperTrio {
				todo = append(todo, refCell{Workload: p.Name, Seed: seed, Mode: mode})
			}
		}
	}
	cells := make([]refCell, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, c := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c refCell) {
			defer wg.Done()
			defer func() { <-sem }()
			cells[i], errs[i] = simulateFull(c.Workload, c.Seed, c.Mode)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sort.SliceStable(cells, func(a, b int) bool {
		return refID(cells[a].Workload, cells[a].Seed, cells[a].Mode) < refID(cells[b].Workload, cells[b].Seed, cells[b].Mode)
	})
	b, err := json.MarshalIndent(refTable{Version: api.Version, Cells: cells}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
