// Command safemem-fuzz runs randomized bug campaigns against the SafeMem
// detection stack: seed-reproducible synthetic workloads with planted leaks,
// corruptions and benign near-misses, judged by a ground-truth oracle
// (package campaign, DESIGN.md §4.5).
//
// Usage:
//
//	safemem-fuzz [-seeds N] [-base-seed N] [-shards N] [-budget 30s]
//	             [-tool ml,mc,both,sample] [-sample-rate N]
//	             [-json] [-shrink] [-sabotage]
//	             [-fault-rate R] [-storm] [-retire]
//	             [-serve :9090] [-flight-dump FILE]
//	             [-log-level info] [-log-format console|json]
//	             [-cpuprofile FILE] [-memprofile FILE] [-version]
//	safemem-fuzz -seed N [-tool both] [-scenario 'cv1|...'] [-flight-dump FILE]
//
// The first form runs a campaign: N scenarios sharded over goroutines, a
// summary on stdout, exit status 1 if the oracle found violations (each with
// a one-line repro command). The second form replays one scenario — either
// regenerated from -seed or parsed from -scenario, exactly what a printed
// repro command contains — under every -tool configuration, one verdict
// block each, with exit status 1 if any violates. Both forms dump the
// flight-recorder history to -flight-dump when they end in violations.
//
// -fault-rate runs every scenario on flaky DIMMs: a seed-deterministic
// background DRAM fault process at R fault events per million cycles, plus
// the kernel scrub daemon. -storm adds clustered error-storm episodes;
// -retire switches the kernel from panic-on-uncorrectable to page
// retirement (without it the fault process stays single-bit-only, since a
// random double-bit on an unwatched line would panic the stock kernel).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"safemem/internal/campaign"
	"safemem/internal/obsrv"
	"safemem/internal/obsrv/buildinfo"
	"safemem/internal/obsrv/flight"
	"safemem/internal/obsrv/logging"
	"safemem/internal/profiling"
	"safemem/internal/telemetry"
)

func main() {
	seeds := flag.Int("seeds", 100, "campaign size: number of generated scenarios")
	baseSeed := flag.Uint64("base-seed", 42, "base seed; scenario i uses a sub-seed derived from it")
	seed := flag.Uint64("seed", 0, "single-scenario mode: run exactly this scenario seed")
	shards := flag.Int("shards", 8, "worker goroutines (summary is identical at any shard count)")
	budget := flag.Duration("budget", 0, "wall-clock budget; 0 = run all seeds")
	tool := flag.String("tool", "ml,mc,both", "tool configurations to judge (comma-separated: none, ml, mc, both, sample)")
	sampleRate := flag.Int("sample-rate", 0, "sampling rate N for the sample tool (0 = default 1/8)")
	asJSON := flag.Bool("json", false, "print the canonical JSON summary instead of text")
	shrink := flag.Bool("shrink", true, "shrink violating scenarios to minimal repros")
	sabotage := flag.Bool("sabotage", false, "self-test: silently break corruption detection; the campaign must fail")
	scenario := flag.String("scenario", "", "single-scenario mode: replay this encoded scenario instead of generating one")
	faultRate := flag.Float64("fault-rate", 0, "background DRAM fault events per million cycles (0 = perfect DIMMs)")
	storm := flag.Bool("storm", false, "cluster background faults into error-storm episodes")
	retire := flag.Bool("retire", false, "retire failing pages and continue instead of panicking on uncorrectable errors")
	serve := flag.String("serve", "", "serve live observability endpoints (/metrics, /events, /healthz, …) on this address, e.g. :9090")
	flightDump := flag.String("flight-dump", "safemem-fuzz-flight.jsonl", "write the flight-recorder event history here when the campaign or replay ends in violations (empty disables)")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout) {
		return
	}
	log := logging.L("safemem-fuzz")
	if err := logging.Setup(); err != nil {
		fmt.Fprintf(os.Stderr, "safemem-fuzz: %v\n", err)
		os.Exit(2)
	}

	if err := profiling.Start(); err != nil {
		log.Error("profiling", "err", err)
		os.Exit(2)
	}
	tools, err := parseTools(*tool)
	if err != nil {
		log.Error("bad -tool list", "err", err)
		profiling.Exit(2)
	}
	env := campaign.Env{Sabotage: *sabotage, FaultRate: *faultRate, Storm: *storm, Retire: *retire,
		SampleRate: *sampleRate}

	// The live plane: a registry the campaign publishes progress into, and
	// the observability server scraping it. Observation-only — the summary
	// is byte-identical with or without it.
	var reg *telemetry.Registry
	if *serve != "" {
		reg = telemetry.NewRegistry("campaign", telemetry.Config{})
		srv, err := obsrv.Start(obsrv.Config{Addr: *serve, Registry: reg, DrainDump: *flightDump})
		if err != nil {
			log.Error("observability server", "err", err)
			profiling.Exit(2)
		}
		defer srv.Close()
		// SIGINT/SIGTERM drain the embedded server with a deadline and
		// flush the flight-recorder dump instead of dying mid-scrape.
		defer obsrv.HandleSignals(srv, obsrv.DefaultShutdownTimeout, nil, profiling.Exit)()
		log.Info("observability server listening", "addr", srv.Addr())
	}

	single := *scenario != "" || isFlagSet("seed")
	if single {
		profiling.Exit(runSingle(os.Stdout, *seed, *scenario, tools, env, *flightDump))
	}

	log.Info("campaign starting", "seeds", *seeds, "base_seed", *baseSeed, "shards", *shards)
	sum, err := campaign.Run(campaign.Config{
		Seeds:      *seeds,
		BaseSeed:   *baseSeed,
		Shards:     *shards,
		Tools:      tools,
		Budget:     *budget,
		Shrink:     *shrink,
		Sabotage:   *sabotage,
		FaultRate:  *faultRate,
		Storm:      *storm,
		Retire:     *retire,
		SampleRate: *sampleRate,
		Registry:   reg,
		FlightDump: *flightDump,
	})
	if err != nil {
		log.Error("campaign failed", "err", err)
		profiling.Exit(1)
	}

	if *asJSON {
		b, err := sum.JSON()
		if err != nil {
			log.Error("rendering summary", "err", err)
			profiling.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		printText(sum)
	}
	if len(sum.Violations) > 0 {
		log.Error("oracle violations", "count", len(sum.Violations), "flight_dump", *flightDump)
		profiling.Exit(1)
	}
	profiling.Exit(0)
}

// runSingle replays one scenario under each listed configuration and
// reports the oracle's verdict on each, one block per configuration; it
// returns 1 if any run violates. This is the mode a printed repro command
// invokes (with one -tool). A replay that ends in violations or an
// execution error dumps the flight history to flightDump by campaign.Run's
// rule.
func runSingle(w io.Writer, seed uint64, encoded string, tools []campaign.ToolConfig, env campaign.Env, flightDump string) int {
	var s *campaign.Scenario
	if encoded != "" {
		var err error
		if s, err = campaign.Decode(encoded); err != nil {
			fmt.Fprintf(os.Stderr, "safemem-fuzz: %v\n", err)
			return 2
		}
		// Decode carries no seed; the flag restores it so hardware-fault
		// bit positions replay identically.
		s.Seed = seed
	} else {
		s = campaign.Generate(seed)
	}
	status := 0
	for _, cfg := range tools {
		res, err := campaign.ExecuteEnv(s, cfg, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "safemem-fuzz: %v\n", err)
			status = 1
			continue
		}
		v := campaign.Judge(s, cfg, res)
		campaign.RecordVerdict(flight.Default, seed, cfg, v)
		fmt.Fprintf(w, "scenario seed=%d tool=%s: %d ops, %d planted, %d near-misses\n",
			seed, cfg, len(s.Ops), len(s.Plan), len(s.Misses))
		fmt.Fprintf(w, "verdict: %d true positives, %d false positives, %d missed, %d expected misses, %d sampled misses\n",
			v.TruePositives, v.FalsePositives, v.Missed, v.ExpectedMisses, v.SampledMisses)
		if res.FaultModel {
			r := res.Resilience
			fmt.Fprintf(w, "hardware: %d fault events, %d corrected, %d repaired, %d pages retired, %d watches migrated, %d data-loss\n",
				res.FaultEvents, res.Corrected, res.Stats.HardwareErrors,
				r.PagesRetired, r.WatchesMigrated, r.DataLossEvents)
		}
		for _, r := range res.Reports {
			fmt.Fprintf(w, "  report: %s at site %#x: %s\n", r.Kind, r.Site, r.Details)
		}
		if len(v.Violations) == 0 {
			fmt.Fprintln(w, "oracle: PASS")
			continue
		}
		status = 1
		for _, vio := range v.Violations {
			fmt.Fprintf(w, "violation: %s %s site=%#x strand=%d: %s\n", vio.Kind, vio.BugKind, vio.Site, vio.Strand, vio.Detail)
		}
	}
	if err := campaign.DumpFlight(flight.Default, flightDump, 0, status != 0); err != nil {
		fmt.Fprintf(os.Stderr, "safemem-fuzz: flight dump: %v\n", err)
	}
	return status
}

// printText renders the human-readable campaign summary.
func printText(sum *campaign.Summary) {
	fmt.Printf("campaign: %d/%d scenarios (base seed %d)", sum.ScenariosRun, sum.Seeds, sum.BaseSeed)
	if sum.Sabotage {
		fmt.Print(" [SABOTAGE]")
	}
	if sum.FaultRate > 0 {
		fmt.Printf(" [fault-rate=%g", sum.FaultRate)
		if sum.Storm {
			fmt.Print(" storm")
		}
		if sum.Retire {
			fmt.Print(" retire")
		}
		fmt.Print("]")
	}
	fmt.Println()
	for _, cs := range sum.Configs {
		fmt.Printf("  %-6s  TP=%-3d FP=%-3d missed=%-3d expected-miss=%-3d",
			cs.Config, cs.TruePositives, cs.FalsePositives, cs.Missed, cs.ExpectedMisses)
		if cs.SampledMisses > 0 {
			fmt.Printf(" sampled-miss=%-3d", cs.SampledMisses)
		}
		fmt.Printf(" hw=%d\n", cs.HardwareErrors)
		if cs.FaultEvents > 0 || cs.PagesRetired > 0 {
			fmt.Printf("        hardware: %d fault events, %d corrected, %d pages retired, %d watches migrated, %d data-loss\n",
				cs.FaultEvents, cs.CorrectedErrors, cs.PagesRetired, cs.WatchesMigrated, cs.DataLossEvents)
		}
		if cs.Latency != nil {
			fmt.Printf("        detection latency (cycles): p50=%.0f p95=%.0f max=%.0f (n=%d)\n",
				cs.Latency.P50, cs.Latency.P95, cs.Latency.Max, cs.Latency.Count)
		}
		if cs.Overhead != nil {
			fmt.Printf("        overhead vs baseline: mean=%.1f%% p95=%.1f%%\n",
				cs.Overhead.Mean*100, cs.Overhead.P95*100)
		}
	}
	if len(sum.Violations) == 0 {
		fmt.Println("oracle: PASS")
		return
	}
	fmt.Printf("oracle: FAIL — %d violation(s)\n", len(sum.Violations))
	for _, v := range sum.Violations {
		fmt.Printf("  [%s/%s] seed=%d cfg=%s: %s\n", v.Kind, v.BugKind, v.Seed, v.Config, v.Detail)
		if v.Shrunk != "" {
			fmt.Printf("    repro (shrunk): %s\n", v.Shrunk)
		} else if v.Repro != "" {
			fmt.Printf("    repro: %s\n", v.Repro)
		}
	}
}

// parseTools resolves the -tool flag's comma-separated list.
func parseTools(s string) ([]campaign.ToolConfig, error) {
	var out []campaign.ToolConfig
	for _, name := range strings.Split(s, ",") {
		c, err := campaign.ParseToolConfig(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tool list")
	}
	return out, nil
}

// isFlagSet reports whether the named flag was given explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
