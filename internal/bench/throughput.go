package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"safemem/internal/apps"
	"safemem/internal/stats"
)

// ThroughputRow is one application's row of the simulator-throughput
// experiment: how fast the host executes the simulated machine.
type ThroughputRow struct {
	App string `json:"app"`
	// SimInstrs is the simulated-instruction count of the run (loads +
	// stores + compute cycles).
	SimInstrs uint64 `json:"sim_instrs"`
	// SimCycles is the simulated CPU time of the run in 2.4 GHz cycles.
	SimCycles uint64 `json:"sim_cycles"`
	// HostNS is the host wall-clock spent executing the run, in nanoseconds.
	HostNS int64 `json:"host_ns"`
	// SimMIPS is millions of simulated instructions per host second.
	SimMIPS float64 `json:"sim_mips"`
	// HostNSPerInstr is host nanoseconds per simulated instruction.
	HostNSPerInstr float64 `json:"host_ns_per_instr"`
}

// Throughput is the result of the throughput experiment, serialised to
// BENCH_throughput.json so speedups and regressions are tracked in-repo.
// The simulated columns (instructions, cycles) are deterministic for a
// given seed/scale; the host columns vary with the machine running the
// benchmark and are indicative, not golden.
type Throughput struct {
	Seed  int64           `json:"seed"`
	Scale int             `json:"scale,omitempty"`
	Rows  []ThroughputRow `json:"rows"`
	// Total aggregates all rows (SimMIPS and HostNSPerInstr recomputed
	// from the summed columns, not averaged).
	Total ThroughputRow `json:"total"`
}

// RunThroughput runs every app uninstrumented (ToolNone) and wall-clocks
// each run on the host. Rows run sequentially even when Parallel > 1:
// concurrent cells would contend for host cores and corrupt the per-row
// timings. Each row times only Machine.Run (Result.HostNS) — machine
// construction, pool recycling and heap setup are harness cost, not
// simulator throughput, and timing them made short rows look ~2× slower
// than the simulator actually is.
func RunThroughput(cfg apps.Config) (*Throughput, error) {
	t := &Throughput{Seed: cfg.Seed, Scale: cfg.Scale}
	all := apps.All()
	for ai, app := range all {
		res, err := Run(app.Name, ToolNone, cfg)
		noteProgress("throughput", ai+1, len(all))
		if err != nil {
			return nil, fmt.Errorf("throughput: %s: %w", app.Name, err)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("throughput: %s run: %w", app.Name, res.Err)
		}
		row := ThroughputRow{
			App:       app.Name,
			SimInstrs: res.Instrs,
			SimCycles: uint64(res.Cycles),
			HostNS:    res.HostNS,
		}
		row.fillRates()
		t.Rows = append(t.Rows, row)
		t.Total.SimInstrs += row.SimInstrs
		t.Total.SimCycles += row.SimCycles
		t.Total.HostNS += row.HostNS
	}
	t.Total.App = "TOTAL"
	t.Total.fillRates()
	return t, nil
}

func (r *ThroughputRow) fillRates() {
	if r.HostNS > 0 {
		// instrs / (ns * 1e-9 s) / 1e6 = instrs * 1e3 / ns.
		r.SimMIPS = float64(r.SimInstrs) * 1e3 / float64(r.HostNS)
	}
	if r.SimInstrs > 0 {
		r.HostNSPerInstr = float64(r.HostNS) / float64(r.SimInstrs)
	}
}

// Render formats the throughput report as a table.
func (t *Throughput) Render() string {
	tab := stats.NewTable(
		"Simulator throughput (uninstrumented apps, host wall-clock)",
		"Application", "Sim instrs", "Sim cycles", "Host ms", "Sim MIPS", "Host ns/instr")
	rows := append(append([]ThroughputRow{}, t.Rows...), t.Total)
	for _, r := range rows {
		tab.AddRow(r.App,
			fmt.Sprintf("%d", r.SimInstrs),
			fmt.Sprintf("%d", r.SimCycles),
			fmt.Sprintf("%.1f", float64(r.HostNS)/1e6),
			fmt.Sprintf("%.1f", r.SimMIPS),
			fmt.Sprintf("%.1f", r.HostNSPerInstr))
	}
	return tab.Render()
}

// WriteJSON writes the report to path (the tracked BENCH_throughput.json
// baseline at the repo root, by default).
func (t *Throughput) WriteJSON(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadThroughput loads a previously written baseline.
func ReadThroughput(path string) (*Throughput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &Throughput{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("throughput baseline %s: %w", path, err)
	}
	return t, nil
}

// CheckAgainst compares this run's host-ns-per-instruction — the aggregate
// total and every per-app row — against a baseline and returns an error if
// any regressed by more than tolerance (0.25 = 25% slower). The total gate
// catches access-path-wide regressions; the per-app gates catch a fast-lane
// bail-out regression that hammers one workload's idiom (say, CompareRun
// falling back to byte loads would triple gzip while barely moving the
// total). Rows present only on one side are skipped — adding an app must
// not fail the gate until the baseline is regenerated.
//
// Host rates are only comparable over the same simulated work, so a seed
// or scale mismatch, or a shared row whose deterministic sim_instrs or
// sim_cycles differ, is an error too.
func (t *Throughput) CheckAgainst(base *Throughput, tolerance float64) error {
	if t.Seed != base.Seed || t.Scale != base.Scale {
		return fmt.Errorf("run is seed %d scale %d, baseline is seed %d scale %d",
			t.Seed, t.Scale, base.Seed, base.Scale)
	}
	baseRows := make(map[string]ThroughputRow, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.App] = r
	}
	for _, r := range t.Rows {
		if b, ok := baseRows[r.App]; ok && (r.SimInstrs != b.SimInstrs || r.SimCycles != b.SimCycles) {
			return fmt.Errorf("%s simulated work changed: %d instrs / %d cycles vs baseline %d / %d",
				r.App, r.SimInstrs, r.SimCycles, b.SimInstrs, b.SimCycles)
		}
	}
	cur, ref := t.Total.HostNSPerInstr, base.Total.HostNSPerInstr
	if ref <= 0 {
		return fmt.Errorf("throughput baseline has no total rate")
	}
	if cur > ref*(1+tolerance) {
		return fmt.Errorf("host ns/instr regressed: %.4f vs baseline %.4f (+%.0f%%, tolerance %.0f%%)",
			cur, ref, (cur/ref-1)*100, tolerance*100)
	}
	for _, r := range t.Rows {
		bref := baseRows[r.App].HostNSPerInstr
		if bref <= 0 {
			continue
		}
		if r.HostNSPerInstr > bref*(1+tolerance) {
			return fmt.Errorf("%s host ns/instr regressed: %.4f vs baseline %.4f (+%.0f%%, tolerance %.0f%%)",
				r.App, r.HostNSPerInstr, bref, (r.HostNSPerInstr/bref-1)*100, tolerance*100)
		}
	}
	return nil
}
