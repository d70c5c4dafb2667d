package bench

import (
	"fmt"

	"safemem/internal/apps"
	"safemem/internal/stats"
)

// SampleRates are the sampling-rate sweep points of the sample-overhead
// table and the detection-probability frontier: full SafeMem (N=1) down to
// the ~free production regime (N=512).
var SampleRates = []int{1, 8, 64, 512}

// SampleRow is one application's row of the sample-overhead table: the
// full-tool overhead for reference, then the sampling tool's overhead at
// each SampleRates point.
type SampleRow struct {
	App        string
	SafeMemPct float64
	// RatePct[i] is the overhead percentage at SampleRates[i].
	RatePct []float64
}

// RunSampleTable measures the sampling tool's time overhead across the
// Table 3 applications at every SampleRates point, against the
// uninstrumented baseline. Cells run on runCells workers; each sampling
// cell carries its rate in its own Spec, so output is identical at any
// Parallel value.
func RunSampleTable(cfg apps.Config) ([]SampleRow, error) {
	all := apps.All()
	ncell := 2 + len(SampleRates) // baseline, full SafeMem, each rate
	results := make([]*Result, len(all)*ncell)
	if err := runCells("sample", Parallel, len(results), func(i int) error {
		app := all[i/ncell].Name
		var res *Result
		var err error
		switch c := i % ncell; c {
		case 0:
			res, err = Run(app, ToolNone, cfg)
		case 1:
			res, err = Run(app, ToolSafeMemBoth, cfg)
		default:
			res, err = RunSpec(Spec{App: app, Tool: ToolSample, Cfg: cfg, SampleRate: SampleRates[c-2]})
		}
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	var rows []SampleRow
	for ai, app := range all {
		cells := results[ai*ncell : (ai+1)*ncell]
		base := cells[0]
		if base.Err != nil {
			return nil, fmt.Errorf("sample: %s base run: %w", app.Name, base.Err)
		}
		row := SampleRow{App: app.Name, SafeMemPct: Overhead(base.Cycles, cells[1].Cycles) * 100}
		for _, res := range cells[2:] {
			row.RatePct = append(row.RatePct, Overhead(base.Cycles, res.Cycles)*100)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSampleTable formats the rows in the Table 3 style.
func RenderSampleTable(rows []SampleRow) string {
	headers := []string{"Application", "SafeMem (full)"}
	for _, n := range SampleRates {
		headers = append(headers, fmt.Sprintf("sample N=%d", n))
	}
	tab := stats.NewTable(
		"Sampling-mode time overhead (%) vs sampling rate N", headers...)
	for _, r := range rows {
		cells := []string{r.App, fmt.Sprintf("%.1f%%", r.SafeMemPct)}
		for _, pct := range r.RatePct {
			cells = append(cells, fmt.Sprintf("%.1f%%", pct))
		}
		tab.AddRow(cells...)
	}
	return tab.Render()
}
