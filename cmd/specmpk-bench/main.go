// Command specmpk-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	specmpk-bench [-workloads a,b,c] [-j N] <experiment>...
//	specmpk-bench -remote host:8351 stats fig9 ...
//
// Experiments: table1 table2 table3 fig3 fig4 fig9 fig10 fig11 fig13 hwcost
// all. Each prints the same rows/series the paper reports, plus the paper's
// quoted aggregate for comparison.
//
// With -remote, pipeline simulations are batch-submitted as jobs to a
// specmpkd daemon instead of running in-process; the daemon's
// content-addressed cache answers repeated specs (e.g. the serialized
// baseline shared by fig3/fig9/fig11) without re-simulating. Experiments
// that need more than a detailed pipeline run — fig10 (functional
// simulation), fig13 (attack PoC), profile/diff — always run locally.
//
// A comma-separated -remote list enables cluster mode: the bench becomes a
// coordinator (internal/cluster) that consistent-hashes each spec onto the
// daemon owning it, probes peer caches before simulating anywhere, hedges
// placements slower than -hedge-after, fails over dead peers via
// content-addressed resubmission, and — when every peer is down — degrades
// cells to in-process simulation. A one-line cluster summary (forwards,
// cache hits, hedges, failovers) lands on stderr after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"specmpk/internal/cluster"
	"specmpk/internal/experiments"
	"specmpk/internal/perf"
	"specmpk/internal/pipeline"
	"specmpk/internal/server/client"
)

func main() { os.Exit(realMain()) }

// realMain carries main's body so deferred cleanup (profile finalization)
// runs before the process exits.
func realMain() int {
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	modes := flag.String("modes", "", "comma-separated policy subset for mode sweeps (default: all registered: "+strings.Join(pipeline.PolicyNames(), ",")+")")
	jobs := flag.Int("j", 0, fmt.Sprintf("concurrent simulations (default: GOMAXPROCS, %d here)", runtime.GOMAXPROCS(0)))
	remote := flag.String("remote", "", "run pipeline simulations on specmpkd daemon(s) at these comma-separated addresses instead of in-process; more than one enables consistent-hash cluster placement")
	hedgeAfter := flag.Duration("hedge-after", 500*time.Millisecond, "cluster mode: latency budget before a lagging peer is hedged to the next replica (<0 disables)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON rows instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this run to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to `file`")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		return 2
	}
	stopProfiles, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specmpk-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "specmpk-bench: profile: %v\n", err)
		}
	}()
	r := experiments.Runner{Parallelism: *jobs}
	if *workloads != "" {
		r.Workloads = strings.Split(*workloads, ",")
	}
	if *remote != "" {
		var addrs []string
		for _, a := range strings.Split(*remote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		switch len(addrs) {
		case 0:
			fmt.Fprintln(os.Stderr, "specmpk-bench: -remote: no addresses")
			return 2
		case 1:
			c := client.New(addrs[0])
			r.Sim = experiments.RemoteSim(c)
			r.Client = c
		default:
			// Cluster mode: the bench process itself is the coordinator
			// (Self is empty — every key is remote), placing each spec on
			// the peer owning it, with peer-cache lookup, hedging and
			// failover; a full-cluster outage degrades cells to in-process
			// simulation via ClusterSim.
			co, err := cluster.New(cluster.Options{Peers: addrs, HedgeAfter: *hedgeAfter})
			if err != nil {
				fmt.Fprintf(os.Stderr, "specmpk-bench: -remote: %v\n", err)
				return 2
			}
			co.Start()
			defer func() {
				co.Close()
				fmt.Fprintf(os.Stderr, "specmpk-bench: cluster: %s\n", co.Summary())
			}()
			r.Sim = experiments.ClusterSim(co)
			r.Client = co.AnyClient()
		}
	}
	if *modes != "" {
		for _, name := range strings.Split(*modes, ",") {
			m, err := pipeline.ParseMode(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "specmpk-bench: %v\n", err)
				return 2
			}
			r.Modes = append(r.Modes, m)
		}
	}
	for _, name := range flag.Args() {
		var err error
		if *asJSON {
			err = runJSON(r, name)
		} else {
			err = run(r, name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "specmpk-bench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

func runJSON(r experiments.Runner, name string) error {
	rows, err := experiments.RowsFor(r, name)
	if err != nil {
		return err
	}
	return experiments.WriteJSON(os.Stdout, name, rows)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: specmpk-bench [flags] <experiment>...

experiments:
  table1   isolation-technique property matrix (Table I)
  table2   SpecMPK's additional source operands (Table II)
  table3   simulated machine configuration (Table III)
  fig3     speculative-WRPKRU speedup + rename-stall share (Figure 3)
  fig4     compiler vs serialization overhead breakdown (Figure 4)
  fig9     normalized IPC of SpecMPK and NonSecure (Figure 9)
  fig10    WRPKRU per kilo-instruction (Figure 10)
  fig11    ROB_pkru size sensitivity (Figure 11)
  fig13    flush+reload attack latencies (Figure 13)
  hwcost   added sequential state (Section VIII)
  vdom     key-virtualization scaling sweep (extension; paper Section III-B)
  window   instruction-window sweep on the densest workload (extension)
  pkrusafe unsafe-library heap isolation overhead (extension; Section III-B)
  rdpkru   pkey_set read-modify-write vs load-immediate updates (Section V-C6)
  sampled  SimPoint sampled-vs-full CPI error and wall-clock speedup per
           workload×policy (paper §VII methodology); with -remote the cells
           run as sampled-fidelity jobs on the daemon (parallel intervals,
           shared profile cache)
  stats    unified metrics registry + CPI-stack per workload×mode, sweeping
           every registered policy incl. delayupgrade/noforward (with -json:
           every pipeline/cache/tlb/bpred metric per row; restrict via -modes)
  profile  per-PC/per-block attribution of simulated time + pkey audit
           ledger per workload×mode, plus the cross-policy differential of
           each mode against the first (-modes a,b; default serialized,specmpk)
  diff     only the cross-policy differential tables from profile
  all      everything above

flags:
`)
	flag.PrintDefaults()
}

func run(r experiments.Runner, name string) error {
	switch name {
	case "table1":
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(rows))
	case "table2":
		fmt.Print(experiments.RenderTable2(experiments.Table2()))
	case "table3":
		fmt.Print(experiments.RenderTable3())
	case "fig3":
		rows, err := experiments.Fig3(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig3(rows))
	case "fig4":
		rows, err := experiments.Fig4(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig4(rows))
	case "fig9":
		rows, err := experiments.Fig9(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig9(rows))
	case "fig10":
		rows, err := experiments.Fig10(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig10(rows))
	case "fig11":
		rows, err := experiments.Fig11(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig11(rows))
	case "fig13":
		res, err := experiments.Fig13()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig13(res))
	case "hwcost":
		fmt.Print(experiments.RenderHWCost(experiments.HWCost()))
	case "vdom":
		rows, err := experiments.VDomSweep()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderVDom(rows))
	case "window":
		name := "520.omnetpp_r"
		if len(r.Workloads) == 1 {
			name = r.Workloads[0]
		}
		rows, err := experiments.WindowSweep(r, name)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderWindow(name, rows))
	case "pkrusafe":
		rows, err := experiments.PKRUSafe(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPKRUSafe(rows))
	case "rdpkru":
		rows, err := experiments.Rdpkru(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderRdpkru(rows))
	case "sampled":
		rows, err := experiments.Sampled(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSampled(rows))
	case "stats":
		rows, err := experiments.StatsRows(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderStats(rows))
	case "profile":
		res, err := experiments.ProfileRun(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderProfile(res, 10))
	case "diff":
		res, err := experiments.ProfileRun(r)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderDiff(res, 10))
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "fig3", "fig4",
			"fig9", "fig10", "fig11", "fig13", "hwcost", "vdom", "window",
			"pkrusafe", "rdpkru", "sampled", "stats", "profile"} {
			if err := run(r, e); err != nil {
				return err
			}
			fmt.Println()
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
