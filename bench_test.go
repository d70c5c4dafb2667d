// Package safemem_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation, plus
// the ablation benchmarks for the design choices called out in DESIGN.md §4.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its headline quantities via b.ReportMetric, so the
// paper numbers appear directly in the benchmark output (overhead
// percentages, microseconds, false-positive counts, reduction factors).
package safemem_test

import (
	"fmt"
	"testing"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/cache"
	"safemem/internal/ecc"
	"safemem/internal/heap"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

var benchCfg = apps.Config{Seed: 42}

// BenchmarkTable2Syscalls measures the ECC monitoring syscalls against
// mprotect (Table 2). Paper: WatchMemory 2.0 µs, DisableWatchMemory 1.5 µs,
// mprotect 1.02 µs.
func BenchmarkTable2Syscalls(b *testing.B) {
	var last *bench.Table2
	for i := 0; i < b.N; i++ {
		t2, err := bench.RunTable2(256)
		if err != nil {
			b.Fatal(err)
		}
		last = t2
	}
	b.ReportMetric(last.WatchMemoryUS, "watch-us")
	b.ReportMetric(last.DisableWatchMemoryUS, "disable-us")
	b.ReportMetric(last.MprotectUS, "mprotect-us")
}

// table3Tools are the overhead columns of Table 3.
var table3Tools = []bench.Tool{
	bench.ToolSafeMemML,
	bench.ToolSafeMemMC,
	bench.ToolSafeMemBoth,
	bench.ToolPurify,
}

// BenchmarkTable3 measures, for every application and tool configuration,
// the run-time overhead against the uninstrumented baseline (Table 3).
// Paper: SafeMem ML+MC 1.6%–14.4%, Purify 4.8×–120×.
func BenchmarkTable3(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			base, err := bench.Run(app.Name, bench.ToolNone, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			if base.Err != nil {
				b.Fatalf("base run: %v", base.Err)
			}
			for _, tool := range table3Tools {
				tool := tool
				b.Run(tool.String(), func(b *testing.B) {
					var res *bench.Result
					for i := 0; i < b.N; i++ {
						res, err = bench.Run(app.Name, tool, benchCfg)
						if err != nil {
							b.Fatal(err)
						}
						if res.Err != nil {
							b.Fatalf("run: %v", res.Err)
						}
					}
					if tool == bench.ToolPurify {
						b.ReportMetric(float64(res.Cycles)/float64(base.Cycles), "slowdown-x")
					} else {
						b.ReportMetric(bench.Overhead(base.Cycles, res.Cycles)*100, "overhead-pct")
					}
					b.ReportMetric(res.Cycles.Seconds()*1000, "sim-ms")
				})
			}
		})
	}
}

// BenchmarkTable3Detection verifies (and times) bug detection on buggy
// inputs with the full SafeMem configuration — the "Bug Detected?" column.
func BenchmarkTable3Detection(b *testing.B) {
	buggy := benchCfg
	buggy.Buggy = true
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var res *bench.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = bench.Run(app.Name, bench.ToolSafeMemBoth, buggy)
				if err != nil {
					b.Fatal(err)
				}
			}
			if !bench.DetectedBug(app, res) {
				b.Fatalf("%s: planted %v bug not detected", app.Name, app.Class)
			}
			b.ReportMetric(1, "detected")
			b.ReportMetric(float64(len(res.SafeMem)), "reports")
		})
	}
}

// BenchmarkTable4 measures the space overhead of ECC-granularity guards
// versus page-granularity guards on identical allocation traces (Table 4).
// Paper: reduction by ECC 64×–74×.
func BenchmarkTable4(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var row bench.Table4Row
			for i := 0; i < b.N; i++ {
				ecc, err := bench.Run(app.Name, bench.ToolSafeMemBoth, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				page, err := bench.Run(app.Name, bench.ToolPageProt, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				row = bench.Table4Row{
					ECCPct:  100 * float64(ecc.Heap.TotalWaste) / float64(ecc.Heap.TotalUser),
					PagePct: 100 * float64(page.Heap.TotalWaste) / float64(page.Heap.TotalUser),
				}
				row.ReductionX = row.PagePct / row.ECCPct
			}
			b.ReportMetric(row.ECCPct, "ecc-waste-pct")
			b.ReportMetric(row.PagePct, "page-waste-pct")
			b.ReportMetric(row.ReductionX, "reduction-x")
		})
	}
}

// BenchmarkTable5 counts false leak reports with and without ECC pruning
// (Table 5). Paper: 2–13 before pruning, 0–1 after.
func BenchmarkTable5(b *testing.B) {
	buggy := benchCfg
	buggy.Buggy = true
	for _, app := range apps.LeakApps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var before, after int
			for i := 0; i < b.N; i++ {
				noPrune := bench.SafeMemOptions(true, true)
				noPrune.PruneWithECC = false
				resB, err := bench.RunSpec(bench.Spec{App: app.Name, Tool: bench.ToolSafeMemBoth, Cfg: buggy, SafeMem: &noPrune})
				if err != nil {
					b.Fatal(err)
				}
				resA, err := bench.Run(app.Name, bench.ToolSafeMemBoth, buggy)
				if err != nil {
					b.Fatal(err)
				}
				_, before = bench.ClassifyLeaks(app, resB.SafeMem)
				_, after = bench.ClassifyLeaks(app, resA.SafeMem)
			}
			b.ReportMetric(float64(before), "fp-before")
			b.ReportMetric(float64(after), "fp-after")
		})
	}
}

// BenchmarkFigure3 runs the lifetime-stability study (Figure 3) and reports
// how early the curves saturate. Paper: all memory-object groups reach
// their stable maximal lifetime early in execution.
func BenchmarkFigure3(b *testing.B) {
	var series []bench.Figure3Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = bench.RunFigure3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		// Fraction of groups stable by half of the run.
		half := 0.0
		for _, p := range s.Points {
			if p.TimeSec <= s.RunSec/2 {
				half = p.Pct
			}
		}
		b.ReportMetric(half, s.App+"-stable-at-halftime-pct")
	}
}

// --- Ablations (DESIGN.md §4) -------------------------------------------

// BenchmarkAblationScramblePattern quantifies why the 3 scramble bits must
// be chosen so their syndrome is invalid: the fraction of random words
// whose scrambled form decodes as Uncorrectable (must be 1.0 for the chosen
// pattern; a naive low-bit triple mostly aliases to corrections).
func BenchmarkAblationScramblePattern(b *testing.B) {
	patterns := []struct {
		name string
		mask uint64
	}{
		{"chosen-3bit", ecc.ScrambleMask()},
		{"naive-3bit", 0b111},
		{"2bit", 0b11},
	}
	for _, p := range patterns {
		p := p
		b.Run(p.name, func(b *testing.B) {
			detected := 0
			total := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < 1024; j++ {
					w := uint64(i*1024+j) * 0x9e3779b97f4a7c15
					_, _, res := ecc.Decode(w^p.mask, ecc.Encode(w))
					total++
					if res == ecc.Uncorrectable {
						detected++
					}
				}
			}
			b.ReportMetric(float64(detected)/float64(total), "detect-rate")
		})
	}
}

// BenchmarkAblationGranularity sweeps guard granularities between the cache
// line and the page, reporting waste per buffer for a representative trace.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, unit := range []uint64{64, 256, 1024, 4096} {
		unit := unit
		b.Run(fmt.Sprintf("unit-%d", unit), func(b *testing.B) {
			var wastePct float64
			for i := 0; i < b.N; i++ {
				m := machine.MustNew(machine.Config{MemBytes: 48 << 20})
				alloc := heap.MustNew(m, heap.Options{Align: unit, PadBytes: unit, Limit: 40 << 20})
				for j := 0; j < 300; j++ {
					if _, err := alloc.Malloc(uint64(24 + j*37%2000)); err != nil {
						b.Fatal(err)
					}
				}
				st := alloc.Stats()
				wastePct = 100 * float64(st.WasteLive) / float64(st.BytesLive)
			}
			b.ReportMetric(wastePct, "waste-pct")
		})
	}
}

// BenchmarkAblationNoFlush shows why WatchMemory must flush the watched
// lines from the cache: with the flush, the first access always faults;
// scrambling DRAM behind a valid cached copy is never noticed.
func BenchmarkAblationNoFlush(b *testing.B) {
	run := func(b *testing.B, flush bool) float64 {
		detected, total := 0, 0
		for i := 0; i < b.N; i++ {
			clock := &simtime.Clock{}
			mem := physmem.MustNew(1 << 20)
			ctrl := memctrl.New(mem, clock)
			ch := cache.MustNew(ctrl, clock, cache.DefaultConfig)
			faults := 0
			ctrl.SetInterruptHandler(func(r memctrl.FaultReport) {
				faults++
				orig := ecc.Scramble(r.Data)
				mem.WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
			})
			for line := physmem.Addr(0); line < 64*64; line += 64 {
				ch.StoreWord(line, uint64(line)) // line now cached (dirty)
				ch.FlushLine(line)               // write data back
				ch.LoadWord(line)                // re-cache it clean
				if flush {
					ch.FlushLine(line)
				}
				// Scramble DRAM, stale check bits (the watch).
				d, _ := mem.ReadGroupRaw(line)
				mem.WriteGroupDataOnly(line, ecc.Scramble(d))
				before := faults
				ch.LoadWord(line) // the program's first access
				total++
				if faults > before {
					detected++
				}
			}
		}
		return float64(detected) / float64(total)
	}
	b.Run("with-flush", func(b *testing.B) {
		b.ReportMetric(run(b, true), "detect-rate")
	})
	b.Run("no-flush", func(b *testing.B) {
		b.ReportMetric(run(b, false), "detect-rate")
	})
}

// BenchmarkAblationCheckingPeriod sweeps the leak-detection checking period
// on ypserv1 and reports the ML-only overhead: amortising detection to
// allocation time keeps even aggressive periods cheap.
func BenchmarkAblationCheckingPeriod(b *testing.B) {
	base, err := bench.Run("ypserv1", bench.ToolNone, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, periodUS := range []float64{250, 1000, 4000} {
		periodUS := periodUS
		b.Run(fmt.Sprintf("period-%.0fus", periodUS), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				opts := bench.SafeMemOptions(true, false)
				opts.CheckingPeriod = simtime.FromMicroseconds(periodUS)
				res, err := bench.RunSpec(bench.Spec{App: "ypserv1", Tool: bench.ToolSafeMemML, Cfg: benchCfg, SafeMem: &opts})
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				overhead = bench.Overhead(base.Cycles, res.Cycles) * 100
			}
			b.ReportMetric(overhead, "ml-overhead-pct")
		})
	}
}

// BenchmarkAblationPinning compares WatchMemory's page pinning against the
// swap hazard: without pinning, an LRU pass destroys the watch silently.
func BenchmarkAblationPinning(b *testing.B) {
	survived := 0
	total := 0
	for i := 0; i < b.N; i++ {
		clock := &simtime.Clock{}
		mem := physmem.MustNew(1 << 20)
		ctrl := memctrl.New(mem, clock)
		ch := cache.MustNew(ctrl, clock, cache.DefaultConfig)
		as := vm.New(mem, clock)
		k := kernel.New(clock, ctrl, ch, as)
		if err := k.MapPages(0x10000, 8); err != nil {
			b.Fatal(err)
		}
		if _, err := k.WatchMemory(0x10000, 64); err != nil {
			b.Fatal(err)
		}
		as.SwapOutLRU(8) // memory pressure
		total++
		if as.Present(0x10000) && k.Watched(0x10000) {
			survived++
		}
	}
	b.ReportMetric(float64(survived)/float64(total), "watch-survival-rate")
}

// BenchmarkExtensionDirectECC evaluates the paper's proposed generalised
// ECC interface (Section 2.2.3): with direct check-bit access, watchpoints
// need no bus lock, no chipset mode switches and no data scrambling. The
// benchmark reports both the syscall-level saving and the resulting
// whole-application MC overhead next to the commodity path.
func BenchmarkExtensionDirectECC(b *testing.B) {
	b.Run("syscall", func(b *testing.B) {
		var classicUS, directUS float64
		for i := 0; i < b.N; i++ {
			measure := func(direct bool) float64 {
				clock := &simtime.Clock{}
				mem := physmem.MustNew(1 << 20)
				ctrl := memctrl.New(mem, clock)
				if direct {
					ctrl.EnableDirectECCAccess()
				}
				ch := cache.MustNew(ctrl, clock, cache.DefaultConfig)
				as := vm.New(mem, clock)
				k := kernel.New(clock, ctrl, ch, as)
				if err := k.MapPages(0x10000, 4); err != nil {
					b.Fatal(err)
				}
				start := clock.Now()
				const n = 64
				for j := 0; j < n; j++ {
					line := vm.VAddr(0x10000 + j*64)
					if _, err := k.WatchMemory(line, 64); err != nil {
						b.Fatal(err)
					}
					if err := k.DisableWatchMemory(line, 64); err != nil {
						b.Fatal(err)
					}
				}
				return (clock.Now() - start).Microseconds() / n
			}
			classicUS = measure(false)
			directUS = measure(true)
		}
		b.ReportMetric(classicUS, "classic-pair-us")
		b.ReportMetric(directUS, "direct-pair-us")
		b.ReportMetric(classicUS/directUS, "speedup-x")
	})
	for _, name := range []string{"ypserv1", "gzip"} {
		name := name
		b.Run(name, func(b *testing.B) {
			base, err := bench.Run(name, bench.ToolNone, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			var classic, direct float64
			for i := 0; i < b.N; i++ {
				c, err := bench.Run(name, bench.ToolSafeMemBoth, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				mcfg := machine.DefaultConfig()
				mcfg.DirectECCAccess = true
				d, err := bench.RunSpec(bench.Spec{App: name, Tool: bench.ToolSafeMemBoth, Cfg: benchCfg, Machine: mcfg})
				if err != nil {
					b.Fatal(err)
				}
				classic = bench.Overhead(base.Cycles, c.Cycles) * 100
				direct = bench.Overhead(base.Cycles, d.Cycles) * 100
			}
			b.ReportMetric(classic, "classic-overhead-pct")
			b.ReportMetric(direct, "direct-overhead-pct")
		})
	}
}

// BenchmarkExtensionMMP evaluates the other hardware direction the paper
// discusses (Section 2.2.4): Mondrian-style word-granularity protection.
// Zero guard padding (the space-overhead endpoint of Table 4), exact
// off-by-one detection, and no per-access software cost — at the price of
// hardware that "still does not exist".
func BenchmarkExtensionMMP(b *testing.B) {
	for _, name := range []string{"ypserv1", "gzip"} {
		name := name
		b.Run(name, func(b *testing.B) {
			base, err := bench.Run(name, bench.ToolNone, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.Run(name, bench.ToolMMP, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(bench.Overhead(base.Cycles, res.Cycles)*100, "overhead-pct")
			b.ReportMetric(100*float64(res.Heap.TotalWaste)/float64(res.Heap.TotalUser), "waste-pct")
			if len(res.MMP) != 0 {
				b.Fatalf("normal inputs produced MMP reports: %v", res.MMP)
			}
		})
	}
	// Detection parity: the planted overflows and freed accesses are caught
	// at word granularity too.
	b.Run("detection", func(b *testing.B) {
		buggy := benchCfg
		buggy.Buggy = true
		detected := 0
		for i := 0; i < b.N; i++ {
			detected = 0
			for _, name := range []string{"gzip", "tar", "squid2"} {
				res, err := bench.Run(name, bench.ToolMMP, buggy)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.MMP) > 0 {
					detected++
				}
			}
		}
		b.ReportMetric(float64(detected), "bugs-detected-of-3")
	})
}

// BenchmarkPageProtBaseline times the page-protection corruption detector
// on the corruption apps, for comparison with SafeMem's MC column.
func BenchmarkPageProtBaseline(b *testing.B) {
	for _, name := range []string{"gzip", "tar"} {
		name := name
		b.Run(name, func(b *testing.B) {
			base, err := bench.Run(name, bench.ToolNone, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.Run(name, bench.ToolPageProt, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bench.Overhead(base.Cycles, res.Cycles)*100, "overhead-pct")
		})
	}
}
