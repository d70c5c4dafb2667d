package bench

import (
	"fmt"

	"safemem/internal/apps"
	"safemem/internal/cache"
	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/stats"
	"safemem/internal/vm"
)

// Table2 reproduces the syscall microbenchmarks (Table 2): the cost of the
// ECC monitoring calls next to standard mprotect. Costs are measured
// through the full kernel paths, averaged over iterations.
type Table2 struct {
	WatchMemoryUS        float64
	DisableWatchMemoryUS float64
	MprotectUS           float64
}

// RunTable2 measures the three calls on a fresh machine.
func RunTable2(iterations int) (*Table2, error) {
	if iterations <= 0 {
		iterations = 256
	}
	clock := &simtime.Clock{}
	mem, err := physmem.New(64 << 20)
	if err != nil {
		return nil, err
	}
	ctrl := memctrl.New(mem, clock)
	ch, err := cache.New(ctrl, clock, cache.DefaultConfig)
	if err != nil {
		return nil, err
	}
	as := vm.New(mem, clock)
	k := kernel.New(clock, ctrl, ch, as)

	const base = vm.VAddr(0x100000)
	pages := iterations/(vm.PageBytes/physmem.LineBytes) + 2
	if err := k.MapPages(base, pages); err != nil {
		return nil, err
	}

	t2 := &Table2{}
	// WatchMemory / DisableWatchMemory over distinct lines.
	var watchTotal, disableTotal simtime.Cycles
	for i := 0; i < iterations; i++ {
		line := base + vm.VAddr(i*physmem.LineBytes)
		start := clock.Now()
		if _, err := k.WatchMemory(line, physmem.LineBytes); err != nil {
			return nil, err
		}
		watchTotal += clock.Now() - start
		start = clock.Now()
		if err := k.DisableWatchMemory(line, physmem.LineBytes); err != nil {
			return nil, err
		}
		disableTotal += clock.Now() - start
	}
	var protTotal simtime.Cycles
	for i := 0; i < iterations; i++ {
		prot := vm.ProtNone
		if i%2 == 1 {
			prot = vm.ProtRW
		}
		start := clock.Now()
		if err := k.Mprotect(base, 1, prot); err != nil {
			return nil, err
		}
		protTotal += clock.Now() - start
	}
	t2.WatchMemoryUS = (watchTotal / simtime.Cycles(iterations)).Microseconds()
	t2.DisableWatchMemoryUS = (disableTotal / simtime.Cycles(iterations)).Microseconds()
	t2.MprotectUS = (protTotal / simtime.Cycles(iterations)).Microseconds()
	return t2, nil
}

// Render formats Table 2 like the paper.
func (t *Table2) Render() string {
	tab := stats.NewTable("Table 2: Time for the ECC system calls", "Calls", "Time(microseconds)")
	tab.AddRow("ECC Protection  WatchMemory", fmt.Sprintf("%.2f", t.WatchMemoryUS))
	tab.AddRow("ECC Protection  DisableWatchMemory", fmt.Sprintf("%.2f", t.DisableWatchMemoryUS))
	tab.AddRow("Page Protection mprotect", fmt.Sprintf("%.2f", t.MprotectUS))
	return tab.Render()
}

// Table3Row is one application's row of Table 3.
type Table3Row struct {
	App          string
	BugDetected  bool
	OnlyMLPct    float64
	OnlyMCPct    float64
	MLMCPct      float64
	PurifyFactor float64
	ReductionX   float64
}

// RunTable3 reproduces the detection + time-overhead comparison (Table 3):
// every app runs under no tool, SafeMem (ML only / MC only / ML+MC) and
// Purify on identical normal inputs; detection is verified on buggy inputs
// with the full configuration. The app×tool cells are independent — each
// owns a fresh machine — and run on runCells workers; rows are assembled in
// app order afterwards, so the output is byte-identical at any Parallel
// value.
func RunTable3(cfg apps.Config) ([]Table3Row, error) {
	all := apps.All()
	normal := cfg
	normal.Buggy = false
	buggy := cfg
	buggy.Buggy = true
	cells := []struct {
		tool Tool
		cfg  apps.Config
	}{
		{ToolNone, normal},
		{ToolSafeMemML, normal},
		{ToolSafeMemMC, normal},
		{ToolSafeMemBoth, normal},
		{ToolPurify, normal},
		{ToolSafeMemBoth, buggy},
	}
	results := make([]*Result, len(all)*len(cells))
	if err := runCells("table3", Parallel, len(results), func(i int) error {
		sp := cells[i%len(cells)]
		res, err := Run(all[i/len(cells)].Name, sp.tool, sp.cfg)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	var rows []Table3Row
	for ai, app := range all {
		row6 := results[ai*len(cells) : (ai+1)*len(cells)]
		base, ml, mc, both, pf, det := row6[0], row6[1], row6[2], row6[3], row6[4], row6[5]
		// Buggy-input runs may legitimately end abnormally; a failed
		// normal-input run would yield a meaningless overhead.
		for _, r := range row6[:5] {
			if r.Err != nil {
				return nil, fmt.Errorf("table3: %s %v run: %w", app.Name, r.Tool, r.Err)
			}
		}

		mlmc := Overhead(base.Cycles, both.Cycles)
		purify := float64(pf.Cycles) / float64(base.Cycles)
		row := Table3Row{
			App:          app.Name,
			BugDetected:  DetectedBug(app, det),
			OnlyMLPct:    Overhead(base.Cycles, ml.Cycles) * 100,
			OnlyMCPct:    Overhead(base.Cycles, mc.Cycles) * 100,
			MLMCPct:      mlmc * 100,
			PurifyFactor: purify,
		}
		if mlmc > 0 {
			row.ReductionX = (purify - 1) / mlmc
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable3 formats the rows like the paper.
func RenderTable3(rows []Table3Row) string {
	tab := stats.NewTable(
		"Table 3: Time overhead (%) comparison between SafeMem and Purify",
		"Application", "Bug Detected?", "Only ML", "Only MC", "ML + MC", "Purify Overhead", "Reduction by SafeMem")
	for _, r := range rows {
		det := "NO"
		if r.BugDetected {
			det = "YES"
		}
		tab.AddRow(r.App, det,
			fmt.Sprintf("%.1f%%", r.OnlyMLPct),
			fmt.Sprintf("%.1f%%", r.OnlyMCPct),
			fmt.Sprintf("%.1f%%", r.MLMCPct),
			fmt.Sprintf("%.1fX", r.PurifyFactor),
			fmt.Sprintf("%.0fX", r.ReductionX))
	}
	return tab.Render()
}

// Table4Row is one application's row of Table 4 (space overhead of ECC
// protection vs page protection, computed over the cumulative memory usage
// of the whole execution).
type Table4Row struct {
	App        string
	ECCPct     float64
	PagePct    float64
	ReductionX float64
}

// RunTable4 measures padding+alignment waste under the two protection
// granularities on identical allocation traces. Cells run on runCells
// workers; output is identical at any Parallel value.
func RunTable4(cfg apps.Config) ([]Table4Row, error) {
	all := apps.All()
	tools := []Tool{ToolSafeMemBoth, ToolPageProt}
	results := make([]*Result, len(all)*len(tools))
	if err := runCells("table4", Parallel, len(results), func(i int) error {
		res, err := Run(all[i/len(tools)].Name, tools[i%len(tools)], cfg)
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	var rows []Table4Row
	for ai, app := range all {
		ecc, page := results[ai*len(tools)], results[ai*len(tools)+1]
		if ecc.Err != nil {
			return nil, fmt.Errorf("table4: %s ECC run: %w", app.Name, ecc.Err)
		}
		if page.Err != nil {
			return nil, fmt.Errorf("table4: %s page run: %w", app.Name, page.Err)
		}
		eccPct := 100 * float64(ecc.Heap.TotalWaste) / float64(ecc.Heap.TotalUser)
		pagePct := 100 * float64(page.Heap.TotalWaste) / float64(page.Heap.TotalUser)
		rows = append(rows, Table4Row{
			App:        app.Name,
			ECCPct:     eccPct,
			PagePct:    pagePct,
			ReductionX: pagePct / eccPct,
		})
	}
	return rows, nil
}

// RenderTable4 formats the rows like the paper.
func RenderTable4(rows []Table4Row) string {
	tab := stats.NewTable(
		"Table 4: Space overhead (%) of ECC-protection vs page-protection",
		"Application", "ECC-Protection", "Page-Protection", "Reduction by ECC")
	for _, r := range rows {
		tab.AddRow(r.App,
			fmt.Sprintf("%.2f%%", r.ECCPct),
			fmt.Sprintf("%.1f%%", r.PagePct),
			fmt.Sprintf("%.0fX", r.ReductionX))
	}
	return tab.Render()
}

// Table5Row is one leak application's row of Table 5 (false positives
// before and after ECC pruning).
type Table5Row struct {
	App           string
	BeforePruning int
	AfterPruning  int
}

// RunTable5 counts false leak reports with pruning disabled (suspects are
// reported immediately) and enabled, on buggy inputs. Cells run on runCells
// workers; output is identical at any Parallel value.
func RunTable5(cfg apps.Config) ([]Table5Row, error) {
	buggy := cfg
	buggy.Buggy = true
	leakApps := apps.LeakApps()
	results := make([]*Result, 2*len(leakApps))
	if err := runCells("table5", Parallel, len(results), func(i int) error {
		app := leakApps[i/2]
		var res *Result
		var err error
		if i%2 == 0 {
			noPrune := SafeMemOptions(true, true)
			noPrune.PruneWithECC = false
			res, err = RunSpec(Spec{App: app.Name, Tool: ToolSafeMemBoth, Cfg: buggy, SafeMem: &noPrune})
		} else {
			res, err = Run(app.Name, ToolSafeMemBoth, buggy)
		}
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}

	var rows []Table5Row
	for ai, app := range leakApps {
		_, fpBefore := ClassifyLeaks(app, results[2*ai].SafeMem)
		_, fpAfter := ClassifyLeaks(app, results[2*ai+1].SafeMem)
		rows = append(rows, Table5Row{App: app.Name, BeforePruning: fpBefore, AfterPruning: fpAfter})
	}
	return rows, nil
}

// RenderTable5 formats the rows like the paper.
func RenderTable5(rows []Table5Row) string {
	tab := stats.NewTable(
		"Table 5: False memory leaks reported before and after ECC-protection pruning",
		"Application", "Before Pruning", "After Pruning")
	for _, r := range rows {
		tab.AddRow(r.App, fmt.Sprintf("%d", r.BeforePruning), fmt.Sprintf("%d", r.AfterPruning))
	}
	return tab.Render()
}
