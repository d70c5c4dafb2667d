// Command safemem-bench regenerates the paper's evaluation: Tables 2–5 and
// Figure 3 (Section 6), on the simulated ECC machine.
//
// Usage:
//
//	safemem-bench [-experiment table2|table3|table4|table5|sample|figure3|summary|frontier|all]
//	              [-seed N] [-scale N] [-iterations N] [-parallel N]
//	              [-frontier-out FILE] [-frontier-scenarios N]
//	              [-metrics-out FILE] [-trace-out FILE] [-jsonl-out FILE]
//	              [-sample-interval MS] [-serve :9090]
//	              [-log-level info] [-log-format console|json]
//	              [-cpuprofile FILE] [-memprofile FILE] [-version]
//
// Absolute numbers are simulated-cycle measurements; the shapes — who wins,
// by roughly what factor, where the crossovers fall — are the reproduction
// target (see EXPERIMENTS.md). Host speed, of the apps, the campaign and the
// fleet alike, is measured by the repository benchmark (benchmark/, gated by
// make bench-check).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/bench/frontier"
	"safemem/internal/obsrv"
	"safemem/internal/obsrv/buildinfo"
	"safemem/internal/obsrv/logging"
	"safemem/internal/profiling"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// jsonOutput aggregates the requested experiments for -format json.
type jsonOutput struct {
	Seed    int64                 `json:"seed"`
	Scale   int                   `json:"scale,omitempty"`
	Table2  *bench.Table2         `json:"table2,omitempty"`
	Table3  []bench.Table3Row     `json:"table3,omitempty"`
	Table4  []bench.Table4Row     `json:"table4,omitempty"`
	Table5  []bench.Table5Row     `json:"table5,omitempty"`
	Sample  []bench.SampleRow     `json:"sample,omitempty"`
	Figure3 []bench.Figure3Series `json:"figure3,omitempty"`
	Summary []bench.SummaryRow    `json:"summary,omitempty"`
	Front   *frontier.Frontier    `json:"frontier,omitempty"`
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: table2, table3, table4, table5, sample, figure3, summary, frontier or all")
	seed := flag.Int64("seed", 42, "workload generator seed")
	scale := flag.Int("scale", 0, "workload scale multiplier (0 = per-experiment default)")
	iterations := flag.Int("iterations", 256, "microbenchmark iterations (table2)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for independent experiment cells (results are identical at any value)")
	frontierOut := flag.String("frontier-out", "BENCH_frontier.json", "where the frontier experiment writes its JSON baseline (empty disables)")
	frontierScenarios := flag.Int("frontier-scenarios", 0, "scenario count for the frontier sweep (0 = tracked-baseline default)")
	format := flag.String("format", "text", "output format: text or json")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus-format metrics dump covering every run to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON timeline (one process per run) to this file")
	jsonlOut := flag.String("jsonl-out", "", "write the JSONL event log to this file")
	sampleMS := flag.Float64("sample-interval", 1, "gauge sampler period in simulated milliseconds (0 disables)")
	serve := flag.String("serve", "", "serve live observability endpoints (/metrics, /events, /healthz, …) on this address, e.g. :9090")
	flightDump := flag.String("flight-dump", "", "with -serve: flush the flight-recorder event history to this JSONL file on SIGINT/SIGTERM drain (empty disables)")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout) {
		return
	}
	log := logging.L("safemem-bench")
	if err := logging.Setup(); err != nil {
		fmt.Fprintf(os.Stderr, "safemem-bench: %v\n", err)
		os.Exit(2)
	}

	if err := profiling.Start(); err != nil {
		log.Error("profiling", "err", err)
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		log.Error("unknown format", "format", *format)
		profiling.Exit(2)
	}

	var session *telemetry.Session
	if *metricsOut != "" || *traceOut != "" || *jsonlOut != "" || *serve != "" {
		session = telemetry.NewSession(telemetry.Config{
			TraceEnabled:   *traceOut != "" || *jsonlOut != "",
			SampleInterval: simtime.FromMicroseconds(*sampleMS * 1000),
		})
		bench.Telemetry = session
		// Telemetry export orders registries by creation time, which
		// parallel cells would race; keep runs sequential so exported
		// files stay deterministic.
		*parallel = 1
	}
	if *serve != "" {
		srv, err := obsrv.Start(obsrv.Config{Addr: *serve, Session: session, DrainDump: *flightDump})
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
	bench.Parallel = *parallel
	asJSON := *format == "json"
	// Long matrix runs show per-cell movement on stderr through the logging
	// facade. Quiet by default under -format json (machine consumers want
	// silence); debug-level lines remain available there via -log-level.
	level := slog.LevelInfo
	if asJSON {
		level = slog.LevelDebug
	}
	bench.Progress = func(label string, done, total int) {
		log.Log(context.Background(), level, "progress", "experiment", label, "done", done, "total", total)
	}
	out := jsonOutput{Seed: *seed, Scale: *scale}

	cfg := apps.Config{Seed: *seed, Scale: *scale}
	run := func(name string, f func() error) {
		switch *experiment {
		case name, "all":
			if err := f(); err != nil {
				log.Error(name+" failed", "err", err)
				profiling.Exit(1)
			}
		}
	}

	run("table2", func() error {
		t2, err := bench.RunTable2(*iterations)
		if err != nil {
			return err
		}
		if asJSON {
			out.Table2 = t2
		} else {
			fmt.Println(t2.Render())
		}
		return nil
	})
	run("table3", func() error {
		rows, err := bench.RunTable3(cfg)
		if err != nil {
			return err
		}
		if asJSON {
			out.Table3 = rows
		} else {
			fmt.Println(bench.RenderTable3(rows))
		}
		return nil
	})
	run("table4", func() error {
		rows, err := bench.RunTable4(cfg)
		if err != nil {
			return err
		}
		if asJSON {
			out.Table4 = rows
		} else {
			fmt.Println(bench.RenderTable4(rows))
		}
		return nil
	})
	run("table5", func() error {
		rows, err := bench.RunTable5(cfg)
		if err != nil {
			return err
		}
		if asJSON {
			out.Table5 = rows
		} else {
			fmt.Println(bench.RenderTable5(rows))
		}
		return nil
	})
	run("sample", func() error {
		rows, err := bench.RunSampleTable(cfg)
		if err != nil {
			return err
		}
		if asJSON {
			out.Sample = rows
		} else {
			fmt.Println(bench.RenderSampleTable(rows))
		}
		return nil
	})
	// frontier sweeps rate × fleet over the campaign templates — hundreds
	// of scenario runs — so it only runs when requested explicitly (not
	// under -experiment all).
	if *experiment == "frontier" {
		opts := frontier.DefaultOptions()
		opts.Parallel = *parallel
		if *frontierScenarios > 0 {
			opts.Scenarios = *frontierScenarios
		}
		f, err := frontier.Run(opts)
		if err != nil {
			log.Error("frontier failed", "err", err)
			profiling.Exit(1)
		}
		if err := f.Validate(0.001); err != nil {
			log.Error("frontier rejects the analytic model", "err", err)
			profiling.Exit(1)
		}
		if *frontierOut != "" && *frontierScenarios == 0 {
			if err := f.WriteJSON(*frontierOut); err != nil {
				fmt.Fprintf(os.Stderr, "safemem-bench: frontier: %v\n", err)
				profiling.Exit(1)
			}
			log.Info("wrote frontier baseline", "path", *frontierOut)
		}
		if asJSON {
			out.Front = f
		} else {
			fmt.Println(f.Render())
		}
	}
	// summary re-runs every experiment internally, so it only runs when
	// requested explicitly (not under -experiment all).
	if *experiment == "summary" {
		rows, err := bench.RunSummary(cfg)
		if err != nil {
			log.Error("summary failed", "err", err)
			profiling.Exit(1)
		}
		if asJSON {
			out.Summary = rows
		} else {
			fmt.Println(bench.RenderSummary(rows))
		}
	}
	run("figure3", func() error {
		series, err := bench.RunFigure3(cfg)
		if err != nil {
			return err
		}
		if asJSON {
			out.Figure3 = series
		} else {
			fmt.Println(bench.RenderFigure3(series))
		}
		return nil
	})

	switch *experiment {
	case "table2", "table3", "table4", "table5", "sample", "figure3", "summary", "frontier", "all":
	default:
		fmt.Fprintf(os.Stderr, "safemem-bench: unknown experiment %q\n", *experiment)
		profiling.Exit(2)
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "safemem-bench: encode: %v\n", err)
			profiling.Exit(1)
		}
	}

	if session != nil {
		if err := session.ExportFiles(*metricsOut, *jsonlOut, *traceOut); err != nil {
			log.Error("telemetry export", "err", err)
			profiling.Exit(1)
		}
	}
	profiling.Exit(0)
}
