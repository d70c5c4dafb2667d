package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"safemem/internal/apps"
	"safemem/internal/stats"
)

// FleetRow aggregates one application's runs across every shard of the
// fleet-throughput experiment. HostNS sums only Machine.Run wall-clock
// (Result.HostNS); the pool recycling between tenants is harness cost and
// is visible instead in the gap between the summed rows and WallNS.
type FleetRow struct {
	App string `json:"app"`
	// Runs is how many times the app ran (one per shard).
	Runs int `json:"runs"`
	// SimInstrs sums the simulated-instruction counts of those runs.
	SimInstrs uint64 `json:"sim_instrs"`
	// HostNS sums the host wall-clock spent inside Machine.Run.
	HostNS int64 `json:"host_ns"`
	// HostNSPerInstr is HostNS / SimInstrs — per-app simulator speed while
	// the whole fleet contends for the host's cores.
	HostNSPerInstr float64 `json:"host_ns_per_instr"`
}

// Fleet is the result of the fleet-throughput experiment: shards × apps
// uninstrumented runs on pooled machines, spread across every host core —
// the aggregate-simulation-capacity view that the campaign and serve planes
// actually experience, as opposed to RunThroughput's one-machine-at-a-time
// view. Serialised to BENCH_fleet.json; the simulated columns are
// deterministic for a seed/scale, the host columns indicative.
type Fleet struct {
	Seed  int64 `json:"seed"`
	Scale int   `json:"scale,omitempty"`
	// Shards is how many full passes over the app list ran.
	Shards int `json:"shards"`
	// Workers is how many runs executed concurrently (≤ host cores).
	Workers int `json:"workers"`
	// Cores is runtime.GOMAXPROCS at run time.
	Cores int `json:"cores"`
	// Rows aggregates per app, in apps.All order.
	Rows []FleetRow `json:"rows"`
	// SimInstrs is the fleet-wide simulated-instruction total.
	SimInstrs uint64 `json:"sim_instrs"`
	// WallNS is the host wall-clock of the whole sweep, launch to last run.
	WallNS int64 `json:"wall_ns"`
	// SimMIPS is fleet-wide millions of simulated instructions per host
	// second: SimInstrs / WallNS. SimMIPSPerCore divides by Workers — the
	// per-core capacity number for sizing detection fleets.
	SimMIPS        float64 `json:"sim_mips"`
	SimMIPSPerCore float64 `json:"sim_mips_per_core"`
}

// RunFleet executes shards full passes over the uninstrumented app list on
// up to workers concurrent goroutines (0 = all host cores), recycling
// machines through the bench pool exactly as the campaign runner does.
// Results are deterministic per run (each cell builds or recycles an
// isolated machine); only the host timings vary with contention.
func RunFleet(cfg apps.Config, shards, workers int) (*Fleet, error) {
	if shards < 1 {
		shards = 1
	}
	cores := runtime.GOMAXPROCS(0)
	if workers < 1 || workers > cores {
		workers = cores
	}
	all := apps.All()
	f := &Fleet{Seed: cfg.Seed, Scale: cfg.Scale, Shards: shards, Workers: workers, Cores: cores}
	n := shards * len(all)
	if workers > n {
		workers = n
		f.Workers = workers
	}
	type cellRes struct {
		instrs uint64
		hostNS int64
	}
	results := make([]cellRes, n)
	start := time.Now()
	err := runCells("fleet", workers, n, func(i int) error {
		name := all[i%len(all)].Name
		res, err := Run(name, ToolNone, cfg)
		if err != nil {
			return err
		}
		if res.Err != nil {
			return fmt.Errorf("fleet: %s run: %w", name, res.Err)
		}
		results[i] = cellRes{instrs: res.Instrs, hostNS: res.HostNS}
		return nil
	})
	f.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}

	f.Rows = make([]FleetRow, len(all))
	for ai, app := range all {
		f.Rows[ai].App = app.Name
	}
	for i, c := range results {
		r := &f.Rows[i%len(all)]
		r.Runs++
		r.SimInstrs += c.instrs
		r.HostNS += c.hostNS
		f.SimInstrs += c.instrs
	}
	for i := range f.Rows {
		if r := &f.Rows[i]; r.SimInstrs > 0 {
			r.HostNSPerInstr = float64(r.HostNS) / float64(r.SimInstrs)
		}
	}
	if f.WallNS > 0 {
		f.SimMIPS = float64(f.SimInstrs) * 1e3 / float64(f.WallNS)
		f.SimMIPSPerCore = f.SimMIPS / float64(f.Workers)
	}
	return f, nil
}

// Render formats the fleet report as a table plus the aggregate line.
func (f *Fleet) Render() string {
	tab := stats.NewTable(
		fmt.Sprintf("Fleet throughput (%d shards × %d apps on %d workers, %d cores)",
			f.Shards, len(f.Rows), f.Workers, f.Cores),
		"Application", "Runs", "Sim instrs", "Host ms", "Host ns/instr")
	rows := append([]FleetRow{}, f.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	for _, r := range rows {
		tab.AddRow(r.App,
			fmt.Sprintf("%d", r.Runs),
			fmt.Sprintf("%d", r.SimInstrs),
			fmt.Sprintf("%.1f", float64(r.HostNS)/1e6),
			fmt.Sprintf("%.2f", r.HostNSPerInstr))
	}
	return tab.Render() + fmt.Sprintf(
		"\nAggregate: %d sim instrs in %.1f host ms — %.1f sim-MIPS, %.1f sim-MIPS/core\n",
		f.SimInstrs, float64(f.WallNS)/1e6, f.SimMIPS, f.SimMIPSPerCore)
}

// WriteJSON writes the report to path (the tracked BENCH_fleet.json
// baseline at the repo root, by default).
func (f *Fleet) WriteJSON(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFleet loads a previously written fleet baseline.
func ReadFleet(path string) (*Fleet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &Fleet{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("fleet baseline %s: %w", path, err)
	}
	return f, nil
}
