// Command safemem-run executes one of the evaluation workloads under a
// chosen monitoring tool and prints its reports and statistics — the
// "run the buggy app under SafeMem and read the bug report" experience.
//
// Usage:
//
//	safemem-run -app ypserv1 [-tool safemem|safemem-ml|safemem-mc|sample|purify|pageprot|none]
//	            [-buggy] [-seed N] [-scale N] [-stop] [-sample-rate N]
//	            [-fault-rate R] [-storm] [-retire]
//	            [-stats] [-metrics-out FILE] [-trace-out FILE] [-jsonl-out FILE]
//	            [-sample-interval MS] [-serve :9090] [-version]
//
// Examples:
//
//	safemem-run -app gzip -buggy            # catch the overflow with SafeMem
//	safemem-run -app squid1 -buggy          # catch the leak
//	safemem-run -app gzip -tool purify      # same workload under Purify
//	safemem-run -app squid1 -buggy -trace-out /tmp/t.json   # Perfetto timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/obsrv"
	"safemem/internal/obsrv/buildinfo"
	"safemem/internal/obsrv/logging"
	"safemem/internal/sampletool"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

func main() {
	appName := flag.String("app", "", "application to run (ypserv1, proftpd, squid1, ypserv2, gzip, tar, squid2)")
	toolName := flag.String("tool", "safemem", "monitoring tool: safemem, safemem-ml, safemem-mc, sample, purify, pageprot, mmp, none")
	sampleRate := flag.Int("sample-rate", sampletool.DefaultRate, "with -tool sample: watch ~1/N of allocations")
	buggy := flag.Bool("buggy", false, "use the bug-triggering inputs")
	seed := flag.Int64("seed", 42, "workload generator seed")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	explain := flag.Bool("explain", false, "print gdb-style elaborations of SafeMem reports")
	stats := flag.Bool("stats", false, "print cache and ECC-controller statistics at exit")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus-format metrics dump to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON timeline (chrome://tracing, Perfetto) to this file")
	jsonlOut := flag.String("jsonl-out", "", "write the JSONL event log to this file")
	sampleMS := flag.Float64("sample-interval", 1, "gauge sampler period in simulated milliseconds (0 disables)")
	faultRate := flag.Float64("fault-rate", 0, "background DRAM fault events per million cycles (0 = perfect DIMMs)")
	storm := flag.Bool("storm", false, "cluster background faults into error-storm episodes")
	retire := flag.Bool("retire", false, "retire failing pages and continue instead of panicking on uncorrectable errors")
	serve := flag.String("serve", "", "serve live observability endpoints (/metrics, /events, /healthz, …) on this address, e.g. :9090")
	flightDump := flag.String("flight-dump", "", "with -serve: flush the flight-recorder event history to this JSONL file on SIGINT/SIGTERM drain (empty disables)")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout) {
		return
	}
	log := logging.L("safemem-run")
	if err := logging.Setup(); err != nil {
		fmt.Fprintf(os.Stderr, "safemem-run: %v\n", err)
		os.Exit(2)
	}

	if *appName == "" {
		var names []string
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
		fmt.Fprintf(os.Stderr, "safemem-run: -app required (one of %s)\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	app, ok := apps.Get(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "safemem-run: unknown app %q\n", *appName)
		os.Exit(2)
	}

	tool, err := bench.ParseTool(*toolName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "safemem-run: %v\n", err)
		os.Exit(2)
	}

	// A live server needs a session even when no export file was asked for:
	// the sampler's simulation-thread reads are what keep the /metrics
	// source cache fresh.
	telemetryWanted := *metricsOut != "" || *traceOut != "" || *jsonlOut != "" || *serve != ""
	var session *telemetry.Session
	if telemetryWanted {
		session = telemetry.NewSession(telemetry.Config{
			TraceEnabled:   *traceOut != "" || *jsonlOut != "",
			SampleInterval: simtime.FromMicroseconds(*sampleMS * 1000),
		})
		bench.Telemetry = session
	}
	if *serve != "" {
		srv, err := obsrv.Start(obsrv.Config{Addr: *serve, Session: session, DrainDump: *flightDump})
		if err != nil {
			log.Error("observability server", "err", err)
			os.Exit(2)
		}
		defer srv.Close()
		// SIGINT/SIGTERM drain the embedded server with a deadline and
		// flush the flight-recorder dump instead of dying mid-scrape.
		defer obsrv.HandleSignals(srv, obsrv.DefaultShutdownTimeout, nil, os.Exit)()
		log.Info("observability server listening", "addr", srv.Addr())
	}

	cfg := apps.Config{Seed: *seed, Scale: *scale, Buggy: *buggy}
	res, err := bench.RunSpec(bench.Spec{
		App: app.Name, Tool: tool, Cfg: cfg,
		SampleRate: *sampleRate,
		FaultRate:  *faultRate, Storm: *storm, Retire: *retire,
	})
	if err != nil {
		log.Error("run failed", "app", app.Name, "err", err)
		os.Exit(1)
	}

	fmt.Printf("%s (%s, %s inputs) under %v\n", app.Name, app.Description, inputKind(*buggy), tool)
	fmt.Printf("  simulated CPU time: %s (%d loads, %d stores, %d mallocs, %d frees)\n",
		res.Cycles, res.Machine.Loads, res.Machine.Stores, res.Heap.Mallocs, res.Heap.Frees)
	if res.Err != nil {
		fmt.Printf("  program terminated: %v\n", res.Err)
	}
	if *faultRate > 0 {
		r := res.Resilience
		fmt.Printf("  dram faults: %d events injected, %d pages retired, %d watches migrated, %d data-loss, %d scrub-daemon steps\n",
			res.FaultEvents, r.PagesRetired, r.WatchesMigrated, r.DataLossEvents, r.ScrubDaemonSteps)
	}

	switch tool {
	case bench.ToolSafeMemML, bench.ToolSafeMemMC, bench.ToolSafeMemBoth:
		st := res.SafeMemStats
		fmt.Printf("  safemem: %d allocs wrapped, %d leak checks, %d suspects (%d pruned), max %d watched lines\n",
			st.Allocs, st.LeakChecks, st.SuspectsFlagged, st.SuspectsPruned, st.MaxWatchedLines)
		if len(res.SafeMem) == 0 {
			fmt.Println("  no bugs reported")
		}
		for i, r := range res.SafeMem {
			fmt.Printf("  BUG %s\n", r)
			if *explain && i < len(res.SafeMemExplain) {
				for _, line := range strings.Split(strings.TrimRight(res.SafeMemExplain[i], "\n"), "\n") {
					fmt.Printf("      %s\n", line)
				}
			}
		}
	case bench.ToolSample:
		ss := res.SampleStats
		fmt.Printf("  sample: 1/%d rate — %d sampled, %d unsampled allocs (pool peak %d live), %d detections\n",
			*sampleRate, ss.Sampled, ss.Unsampled, ss.PoolPeak, ss.Detections)
		st := res.SafeMemStats
		fmt.Printf("  safemem (inner): %d allocs wrapped, %d suspects (%d pruned), max %d watched lines\n",
			st.Allocs, st.SuspectsFlagged, st.SuspectsPruned, st.MaxWatchedLines)
		if len(res.SafeMem) == 0 {
			fmt.Println("  no bugs reported (unsampled allocations are never checked — rerun with a lower -sample-rate or another seed)")
		}
		for _, r := range res.SafeMem {
			fmt.Printf("  BUG %s\n", r)
		}
	case bench.ToolPurify:
		st := res.PurifyStats
		fmt.Printf("  purify: %d accesses checked, %d leak scans (%d bytes swept)\n",
			st.AccessesChecked, st.LeakScans, st.BytesSwept)
		if len(res.Purify) == 0 {
			fmt.Println("  no bugs reported")
		}
		for _, r := range res.Purify {
			fmt.Printf("  BUG %s\n", r)
		}
	case bench.ToolPageProt:
		st := res.PageProtStats
		fmt.Printf("  pageprot: %d protects, %d faults taken\n", st.Protects, st.FaultsTaken)
		for _, r := range res.PageProt {
			fmt.Printf("  BUG %s\n", r)
		}
	case bench.ToolMMP:
		st := res.MMPStats
		fmt.Printf("  mmp: %d allocations tabled, %d accesses checked\n", st.Allocs, st.Checks)
		for _, r := range res.MMP {
			fmt.Printf("  BUG %s\n", r)
		}
	}

	if *stats {
		cs := res.Cache
		total := cs.Hits + cs.Misses
		ratio := 0.0
		if total > 0 {
			ratio = float64(cs.Hits) / float64(total)
		}
		fmt.Printf("  cache: %d hits, %d misses (%.2f%% hit ratio), %d write-backs, %d flushes\n",
			cs.Hits, cs.Misses, 100*ratio, cs.WriteBacks, cs.Flushes)
		ms := res.Ctrl
		fmt.Printf("  ecc-ctrl: %d line reads, %d line writes, %d corrected-single, %d uncorrectable\n",
			ms.LineReads, ms.LineWrites, ms.CorrectedSingle, ms.Uncorrectable)
		fmt.Printf("  scrub: %d lines scrubbed (%d corrected), %d coordinated passes\n",
			ms.ScrubbedLines, ms.ScrubCorrected, res.Kern.ScrubPasses)
	}

	if session != nil {
		if err := session.ExportFiles(*metricsOut, *jsonlOut, *traceOut); err != nil {
			log.Error("telemetry export", "err", err)
			os.Exit(1)
		}
	}
}

func inputKind(buggy bool) string {
	if buggy {
		return "buggy"
	}
	return "normal"
}
