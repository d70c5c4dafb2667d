// Package campbench is the campaign-throughput experiment behind
// `safemem-bench -experiment campaign`: how many campaign scenarios per
// host second the executor sustains on a freshly built machine per run
// (cold: machine construction plus heap creation and tool attachment — the
// unamortized cost every new shard or fleet worker pays) versus on a pooled
// machine reset by restoring its pristine image (warm), per tool
// configuration, plus the same before/after for fleet scenario jobs. The
// short-scenario tail — the shortest quartile by op count, where warmup
// dominates the run — is reported separately; it is the population machine
// reuse exists for, and the tracked BENCH_campaign.json baseline pins its
// speedup.
//
// Simulated results are identical on both passes (the recycle equivalence
// tests pin that byte-for-byte); only host wall-clock differs, so like the
// throughput and fleet baselines the host columns are indicative, not
// golden.
package campbench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"safemem/internal/campaign"
	"safemem/internal/fleet"
	"safemem/internal/stats"
)

// Options configures the experiment.
type Options struct {
	// Seed is the base scenario seed; scenario i uses Seed+i.
	Seed uint64
	// Scenarios is how many scenarios each tool configuration runs per pass.
	Scenarios int
	// FleetJobs is how many scenario jobs the fleet leg runs per pass.
	FleetJobs int
	// Workers is the fleet leg's concurrency.
	Workers int
	// WarmReps is how many times each warm pass repeats; the best (minimum
	// total time) repetition is reported. Warm batches complete in
	// single-digit milliseconds, so one GC pause or scheduler preemption
	// would otherwise dominate the measurement — host noise is one-sided,
	// and the minimum is the robust estimator the regression gate needs.
	WarmReps int
}

// DefaultOptions returns the tracked-baseline configuration.
func DefaultOptions() Options {
	// At most 4 workers, so the fleet leg measures the same concurrency
	// on any larger host.
	w := min(runtime.GOMAXPROCS(0), 4)
	return Options{Seed: 42, Scenarios: 32, FleetJobs: 32, Workers: w, WarmReps: 8}
}

// Row is one tool configuration's before/after comparison.
type Row struct {
	Tool string `json:"tool"`
	// Scenarios is the per-pass scenario count.
	Scenarios int `json:"scenarios"`
	// ColdNS / WarmNS are summed per-scenario host wall-clock (warmup +
	// run) for the fresh-machine and pooled-machine passes; the warm figure
	// is the best of Options.WarmReps repetitions.
	ColdNS int64 `json:"cold_ns"`
	WarmNS int64 `json:"warm_ns"`
	// ColdPerSec / WarmPerSec are scenarios per host second.
	ColdPerSec float64 `json:"cold_per_sec"`
	WarmPerSec float64 `json:"warm_per_sec"`
	// Speedup is WarmPerSec / ColdPerSec.
	Speedup float64 `json:"speedup"`
	// The short-scenario tail: the shortest quartile by op count, where
	// warmup dominates and machine reuse pays off most.
	TailScenarios  int     `json:"tail_scenarios"`
	TailColdNS     int64   `json:"tail_cold_ns"`
	TailWarmNS     int64   `json:"tail_warm_ns"`
	TailColdPerSec float64 `json:"tail_cold_per_sec"`
	TailWarmPerSec float64 `json:"tail_warm_per_sec"`
	TailSpeedup    float64 `json:"tail_speedup"`
}

// fillRates computes the derived per-second and speedup columns.
func (r *Row) fillRates() {
	if r.ColdNS > 0 {
		r.ColdPerSec = float64(r.Scenarios) * 1e9 / float64(r.ColdNS)
	}
	if r.WarmNS > 0 {
		r.WarmPerSec = float64(r.Scenarios) * 1e9 / float64(r.WarmNS)
	}
	if r.ColdPerSec > 0 {
		r.Speedup = r.WarmPerSec / r.ColdPerSec
	}
	if r.TailColdNS > 0 {
		r.TailColdPerSec = float64(r.TailScenarios) * 1e9 / float64(r.TailColdNS)
	}
	if r.TailWarmNS > 0 {
		r.TailWarmPerSec = float64(r.TailScenarios) * 1e9 / float64(r.TailWarmNS)
	}
	if r.TailColdPerSec > 0 {
		r.TailSpeedup = r.TailWarmPerSec / r.TailColdPerSec
	}
}

// Campaign is the experiment result, serialised to BENCH_campaign.json.
type Campaign struct {
	Seed      uint64 `json:"seed"`
	Scenarios int    `json:"scenarios"`
	// Rows compares per tool configuration, in campaign.AllConfigs order;
	// Total aggregates them (rates recomputed from summed columns).
	Rows  []Row `json:"rows"`
	Total Row   `json:"total"`
	// The fleet leg: FleetJobs scenario jobs through the fleet executor on
	// FleetWorkers goroutines, cold versus warm, wall-clocked end to end
	// (warm: best of Options.WarmReps repetitions).
	FleetJobs       int     `json:"fleet_jobs"`
	FleetWorkers    int     `json:"fleet_workers"`
	FleetColdNS     int64   `json:"fleet_cold_ns"`
	FleetWarmNS     int64   `json:"fleet_warm_ns"`
	FleetColdPerSec float64 `json:"fleet_cold_jobs_per_sec"`
	FleetWarmPerSec float64 `json:"fleet_warm_jobs_per_sec"`
	FleetSpeedup    float64 `json:"fleet_speedup"`
}

// Progress, when set, is called after each completed pass segment (same
// contract as bench.Progress; the CLI wires the two together).
var Progress func(label string, done, total int)

func note(done, total int) {
	if Progress != nil {
		Progress("campaign", done, total)
	}
}

// drainPool empties the executor machine pool so the next run builds a
// fresh machine: a sync.Pool drops every idle object that sits unused
// through two garbage collections.
func drainPool() {
	runtime.GC()
	runtime.GC()
}

// scenarioPass runs every scenario once under cfg and returns the summed
// host nanoseconds over all scenarios and over the tail. A cold pass drains
// the machine pool (untimed) before each scenario, so every timed run pays
// a fresh machine build.
func scenarioPass(scenarios []*campaign.Scenario, tail map[int]bool, cfg campaign.ToolConfig, cold bool) (ns, tailNS int64, err error) {
	for i, s := range scenarios {
		if cold {
			drainPool()
		}
		start := time.Now()
		res, err := campaign.ExecuteEnv(s, cfg, campaign.Env{})
		dt := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, 0, fmt.Errorf("campaign: %s seed %d: %w", cfg, s.Seed, err)
		}
		if res.Err != nil {
			return 0, 0, fmt.Errorf("campaign: %s seed %d run: %w", cfg, s.Seed, res.Err)
		}
		ns += dt
		if tail[i] {
			tailNS += dt
		}
	}
	return ns, tailNS, nil
}

// fleetJobs runs fleet scenario jobs first..end-1 on up to workers
// goroutines and returns the batch's wall-clock nanoseconds.
func fleetJobs(seed uint64, first, end, workers int) (int64, error) {
	errs := make([]error, end-first)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < min(workers, end-first); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				spec := fleet.JobSpec{Seed: seed + uint64(i), Tool: "both"}
				if _, err := fleet.Execute(context.Background(), spec, nil); err != nil {
					errs[i-first] = fmt.Errorf("campaign: fleet job seed %d: %w", spec.Seed, err)
				}
			}
		}()
	}
	for i := first; i < end; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start).Nanoseconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return wall, nil
}

// Run executes the experiment.
func Run(opts Options) (*Campaign, error) {
	if opts.Scenarios < 4 {
		opts.Scenarios = 4
	}
	if opts.FleetJobs < 1 {
		opts.FleetJobs = 1
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.WarmReps < 1 {
		opts.WarmReps = 1
	}

	scenarios := make([]*campaign.Scenario, opts.Scenarios)
	for i := range scenarios {
		scenarios[i] = campaign.Generate(opts.Seed + uint64(i))
	}
	// The short tail: indices of the shortest quartile by op count.
	byOps := make([]int, len(scenarios))
	for i := range byOps {
		byOps[i] = i
	}
	sort.SliceStable(byOps, func(a, b int) bool {
		return len(scenarios[byOps[a]].Ops) < len(scenarios[byOps[b]].Ops)
	})
	tail := make(map[int]bool, len(scenarios)/4)
	for _, i := range byOps[:len(byOps)/4] {
		tail[i] = true
	}

	c := &Campaign{Seed: opts.Seed, Scenarios: opts.Scenarios}
	total := len(campaign.AllConfigs)*2 + 2
	done := 0

	warmPass := func(cfg campaign.ToolConfig, row *Row) error {
		// Prime the pool: the one-time machine build is the cost the
		// campaign amortises across a whole shard, so it is excluded from
		// the steady-state rate (and included in the cold pass, which pays
		// it per scenario).
		if _, err := campaign.ExecuteEnv(scenarios[0], cfg, campaign.Env{}); err != nil {
			return err
		}
		// The cold pass sheds hundreds of megabytes of dead machines; a
		// concurrent collection digesting them would tax the millisecond
		// warm windows with allocation assists. Start every timed warm pass
		// on a collected heap (testing.B does the same between benchmarks);
		// one collection leaves the primed machine in the pool.
		runtime.GC()
		for r := 0; r < opts.WarmReps; r++ {
			ns, tailNS, err := scenarioPass(scenarios, tail, cfg, false)
			if err != nil {
				return err
			}
			if r == 0 || ns < row.WarmNS {
				row.WarmNS = ns
			}
			if r == 0 || tailNS < row.TailWarmNS {
				row.TailWarmNS = tailNS
			}
		}
		return nil
	}

	for _, cfg := range campaign.AllConfigs {
		row := Row{Tool: cfg.String(), Scenarios: opts.Scenarios, TailScenarios: len(tail)}
		var err error
		if row.ColdNS, row.TailColdNS, err = scenarioPass(scenarios, tail, cfg, true); err != nil {
			return nil, err
		}
		done++
		note(done, total)
		if err := warmPass(cfg, &row); err != nil {
			return nil, err
		}
		done++
		note(done, total)
		row.fillRates()
		c.Rows = append(c.Rows, row)
		c.Total.Scenarios += row.Scenarios
		c.Total.ColdNS += row.ColdNS
		c.Total.WarmNS += row.WarmNS
		c.Total.TailScenarios += row.TailScenarios
		c.Total.TailColdNS += row.TailColdNS
		c.Total.TailWarmNS += row.TailWarmNS
	}
	c.Total.Tool = "TOTAL"
	c.Total.fillRates()

	// The fleet leg: the same jobs/sec measurement the serving plane sees.
	// The cold pass runs the jobs in waves of one job per worker, each wave
	// on a drained pool, so every job builds its machine; the summed wave
	// wall-clocks are its time. The warm batch finishes in milliseconds, so
	// like the scenario passes it repeats and keeps the best wall clock.
	c.FleetJobs, c.FleetWorkers = opts.FleetJobs, opts.Workers
	for first := 0; first < opts.FleetJobs; first += opts.Workers {
		drainPool()
		wall, err := fleetJobs(opts.Seed, first, min(first+opts.Workers, opts.FleetJobs), opts.Workers)
		if err != nil {
			return nil, err
		}
		c.FleetColdNS += wall
	}
	done++
	note(done, total)
	// Prime one machine per worker, then start on a collected heap like the
	// scenario passes. The fleet batch is one wall-clock window, not a sum
	// of per-scenario slices, so it gets half the averaging the scenario
	// passes do per rep — double the rep count to keep the minimum equally
	// robust.
	if _, err := fleetJobs(opts.Seed, 0, opts.Workers, opts.Workers); err != nil {
		return nil, err
	}
	runtime.GC()
	for r := 0; r < 2*opts.WarmReps; r++ {
		wall, err := fleetJobs(opts.Seed, 0, opts.FleetJobs, opts.Workers)
		if err != nil {
			return nil, err
		}
		if r == 0 || wall < c.FleetWarmNS {
			c.FleetWarmNS = wall
		}
	}
	done++
	note(done, total)
	if c.FleetColdNS > 0 {
		c.FleetColdPerSec = float64(c.FleetJobs) * 1e9 / float64(c.FleetColdNS)
	}
	if c.FleetWarmNS > 0 {
		c.FleetWarmPerSec = float64(c.FleetJobs) * 1e9 / float64(c.FleetWarmNS)
	}
	if c.FleetColdPerSec > 0 {
		c.FleetSpeedup = c.FleetWarmPerSec / c.FleetColdPerSec
	}
	return c, nil
}

// Render formats the report as a table plus the fleet aggregate line.
func (c *Campaign) Render() string {
	tab := stats.NewTable(
		fmt.Sprintf("Campaign throughput (%d scenarios per tool, cold fresh machine vs warm pooled machine)", c.Scenarios),
		"Tool", "Cold /s", "Warm /s", "Speedup", "Tail cold /s", "Tail warm /s", "Tail speedup")
	rows := append(append([]Row{}, c.Rows...), c.Total)
	for _, r := range rows {
		tab.AddRow(r.Tool,
			fmt.Sprintf("%.1f", r.ColdPerSec),
			fmt.Sprintf("%.1f", r.WarmPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1f", r.TailColdPerSec),
			fmt.Sprintf("%.1f", r.TailWarmPerSec),
			fmt.Sprintf("%.2fx", r.TailSpeedup))
	}
	return tab.Render() + fmt.Sprintf(
		"\nFleet: %d jobs on %d workers — %.1f cold jobs/s, %.1f warm jobs/s (%.2fx)\n",
		c.FleetJobs, c.FleetWorkers, c.FleetColdPerSec, c.FleetWarmPerSec, c.FleetSpeedup)
}

// WriteJSON writes the report to path (the tracked BENCH_campaign.json
// baseline at the repo root, by default).
func (c *Campaign) WriteJSON(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read loads a previously written campaign baseline.
func Read(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &Campaign{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("campaign baseline %s: %w", path, err)
	}
	return c, nil
}

// CheckAgainst compares this run's warm scenarios/sec — the aggregate total,
// every per-tool row, and the short tail — against a baseline and returns an
// error if any regressed by more than its tolerance. The aggregates (total
// warm, total tail warm, fleet jobs/sec) use tolerance directly (0.25 = 25%
// slower fails); per-tool rows use double that, because each row sums a
// fifth of the aggregate's samples and single-digit-millisecond windows on
// a loaded host jitter past 25% without any code change — while the
// regression class this gate exists for (the pooled reset path falling back
// to rebuild work) costs 10-100x and trips either threshold. Rows
// present only on one side are skipped, so adding a tool configuration does
// not fail the gate until the baseline is regenerated.
func (c *Campaign) CheckAgainst(base *Campaign, tolerance float64) error {
	check := func(name string, cur, ref, tol float64) error {
		if ref <= 0 {
			return nil
		}
		if cur < ref*(1-tol) {
			return fmt.Errorf("%s scenarios/sec regressed: %.1f vs baseline %.1f (-%.0f%%, tolerance %.0f%%)",
				name, cur, ref, (1-cur/ref)*100, tol*100)
		}
		return nil
	}
	if base.Total.WarmPerSec <= 0 {
		return fmt.Errorf("campaign baseline has no total warm rate")
	}
	if err := check("total warm", c.Total.WarmPerSec, base.Total.WarmPerSec, tolerance); err != nil {
		return err
	}
	if err := check("total tail warm", c.Total.TailWarmPerSec, base.Total.TailWarmPerSec, tolerance); err != nil {
		return err
	}
	baseRows := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Tool] = r
	}
	rowTol := 2 * tolerance
	for _, r := range c.Rows {
		b, ok := baseRows[r.Tool]
		if !ok {
			continue
		}
		if err := check(r.Tool+" warm", r.WarmPerSec, b.WarmPerSec, rowTol); err != nil {
			return err
		}
		if err := check(r.Tool+" tail warm", r.TailWarmPerSec, b.TailWarmPerSec, rowTol); err != nil {
			return err
		}
	}
	return check("fleet warm jobs", c.FleetWarmPerSec, base.FleetWarmPerSec, tolerance)
}
