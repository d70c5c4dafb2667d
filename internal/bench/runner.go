// Package bench is the experiment harness: it wires ⟨application, tool⟩
// pairs onto fresh simulated machines, runs them on identical inputs, and
// regenerates every table and figure of the paper's evaluation
// (Sections 5–6). See DESIGN.md §3 for the experiment index.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safemem/internal/apps"
	"safemem/internal/cache"
	safemem "safemem/internal/core"
	"safemem/internal/faultmodel"
	"safemem/internal/heap"
	"safemem/internal/inject"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/memctrl"
	"safemem/internal/mmp"
	"safemem/internal/pageprot"
	"safemem/internal/purify"
	"safemem/internal/sampletool"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// Telemetry, when set, collects metrics and traces for every run started
// through this package: each run gets its own registry in the session,
// labelled "app/tool". Nil (the default) leaves runs on a quiet private
// registry. The CLIs set it from their -metrics-out / -trace-out flags.
var Telemetry *telemetry.Session

// FaultKnobs configures the background DRAM fault process for runs started
// through this package (the -fault-rate / -storm / -retire flags).
type FaultKnobs struct {
	// Rate is fault events per million simulated cycles over the heap arena.
	Rate float64
	// Storm clusters faults into error-storm episodes.
	Storm bool
	// Retire switches the kernel to page retirement on uncorrectable errors.
	// Without it the process plants only correctable single-bit faults — a
	// random double-bit on an unwatched line would panic the stock kernel.
	Retire bool
}

// Faults, when set with a positive Rate, runs every benchmark "on flaky
// DIMMs": a fault process seeded from the workload seed, the kernel scrub
// daemon, and (with Retire) page retirement. Nil (the default) leaves the
// hardware perfect, preserving the stock evaluation numbers.
var Faults *FaultKnobs

// Parallel is the worker count runCells uses to execute independent
// experiment cells concurrently (the -parallel flag of safemem-bench).
// Values below 2 keep the legacy fully-sequential order. Every cell builds
// its own machine, so results are identical at any worker count; only host
// wall-clock changes.
var Parallel = 1

// Progress, when set, is called after each experiment cell completes:
// label names the experiment ("table3", "figure3", …), done/total count
// cells so far. The CLI installs a logging printer here so long matrix
// runs show movement; nil (the default) stays silent. Cells run on worker
// goroutines, so implementations must be safe for concurrent use. Progress
// observes the sweep — it never influences results.
var Progress func(label string, done, total int)

// noteProgress reports one finished cell to the Progress hook.
func noteProgress(label string, done, total int) {
	if Progress != nil {
		Progress(label, done, total)
	}
}

// runCells executes n independent cell functions, each writing only its own
// result slot, on up to Parallel workers, reporting each finished cell to
// the Progress hook under label. Cells must not share simulator state (each
// bench.Run constructs a fresh machine). The returned error is the
// lowest-indexed cell error, matching what a sequential sweep would have
// reported first; later cells still run to completion either way.
func runCells(label string, n int, cell func(i int) error) error {
	var done atomic.Int64
	workers := Parallel
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	finish := func(i int, err error) {
		errs[i] = err
		noteProgress(label, int(done.Add(1)), n)
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			finish(i, cell(i))
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					finish(i, cell(i))
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Tool selects the monitoring configuration of a run (the columns of
// Table 3).
type Tool int

const (
	// ToolNone is the uninstrumented baseline.
	ToolNone Tool = iota
	// ToolSafeMemML is SafeMem with only memory-leak detection.
	ToolSafeMemML
	// ToolSafeMemMC is SafeMem with only memory-corruption detection.
	ToolSafeMemMC
	// ToolSafeMemBoth is the full SafeMem configuration (ML + MC).
	ToolSafeMemBoth
	// ToolPurify is the Purify baseline.
	ToolPurify
	// ToolPageProt is the page-protection corruption detector.
	ToolPageProt
	// ToolMMP is the hypothetical word-granularity (Mondrian-style)
	// corruption detector of Section 2.2.4's discussion.
	ToolMMP
	// ToolSample is the GWP-ASan-style sampling SafeMem: the full detector
	// applied to a ~1/SampleRate sampled allocation pool, everything else
	// unwatched (internal/sampletool).
	ToolSample
)

// String names the tool configuration.
func (t Tool) String() string {
	switch t {
	case ToolNone:
		return "none"
	case ToolSafeMemML:
		return "safemem-ml"
	case ToolSafeMemMC:
		return "safemem-mc"
	case ToolSafeMemBoth:
		return "safemem"
	case ToolPurify:
		return "purify"
	case ToolPageProt:
		return "pageprot"
	case ToolMMP:
		return "mmp"
	case ToolSample:
		return "sample"
	default:
		return fmt.Sprintf("Tool(%d)", int(t))
	}
}

// SampleRate is the sampling rate N for ToolSample runs started through
// Run/RunWithMachine (the -sample-rate flag). Sweeps that need several
// rates concurrently use RunSample with an explicit rate instead.
var SampleRate = 8

// SampleSeed, when non-zero, overrides the sampling-decision seed for
// ToolSample runs; zero derives it from the workload seed.
var SampleSeed uint64

// sampleSeedSalt decorrelates the derived sampling-decision stream from
// the workload's own seed ("SAMPLE" in ASCII).
const sampleSeedSalt uint64 = 0x53414d504c45

// SafeMemOptions returns the SafeMem configuration used throughout the
// evaluation harness: DefaultOptions with the always-leak threshold scaled
// to the simulator's workload sizes (the paper's server runs see orders of
// magnitude more objects than a deterministic simulation can).
func SafeMemOptions(leaks, corruption bool) safemem.Options {
	o := safemem.DefaultOptions()
	o.DetectLeaks = leaks
	o.DetectCorruption = corruption
	o.ALeakLiveThreshold = 24
	// The warm-up must comfortably exceed initialisation time plus the
	// ALeak growth window, or an init-time working set still looks
	// "recently growing" at the first check.
	o.WarmupTime = simtime.FromMicroseconds(4000)
	return o
}

// Result captures everything a single run produced.
type Result struct {
	App  string
	Tool Tool
	Cfg  apps.Config
	Err  error // non-nil when the program aborted or crashed

	// Cycles is the simulated CPU time of the run.
	Cycles simtime.Cycles
	// Instrs is the simulated-instruction count (loads + stores + compute
	// cycles) — the denominator of the throughput experiment.
	Instrs uint64
	// HostNS is host wall-clock spent inside Machine.Run — the simulated
	// program only, excluding machine construction/recycling, heap setup and
	// tool attachment. The throughput and fleet experiments aggregate it.
	HostNS int64

	// Tool-specific outputs (only the attached tool's fields are set).
	SafeMem []safemem.BugReport
	// SafeMemExplain holds the gdb-style elaboration of each SafeMem
	// report (same order), rendered while the machine state is live.
	SafeMemExplain []string
	SafeMemStats   safemem.Stats
	Groups         []safemem.GroupInfo
	Purify         []purify.Report
	PurifyStats    purify.Stats
	PageProt       []pageprot.Report
	PageProtStats  pageprot.Stats
	MMP            []mmp.Report
	MMPStats       mmp.Stats
	// SampleStats holds the sampling front-end's counters (ToolSample
	// runs; the inner detector's output lands in SafeMem/SafeMemStats, so
	// a rate-1 sample run is directly comparable to ToolSafeMemBoth).
	SampleStats sampletool.Stats

	// Heap and machine statistics (all runs).
	Heap    heap.Stats
	Machine machine.Stats

	// Substrate statistics (all runs) — cache, ECC controller, kernel.
	Cache cache.Stats
	Ctrl  memctrl.Stats
	Kern  kernel.Stats

	// Resilience holds the kernel's hardware-fault survival counters;
	// FaultEvents counts background fault-process events (both zero unless
	// Faults is set).
	Resilience  kernel.ResilienceStats
	FaultEvents uint64

	// Registry is the run's telemetry registry (always non-nil; shared with
	// the package-level Session when one is installed). Without a Session
	// it is the pooled machine's quiet registry, which the next run on that
	// machine reuses.
	Registry *telemetry.Registry
}

// heapOptionsFor returns the allocator configuration each tool requires.
func heapOptionsFor(tool Tool) heap.Options {
	switch tool {
	case ToolSafeMemML:
		return safemem.HeapOptions(false)
	case ToolSafeMemMC, ToolSafeMemBoth, ToolSample:
		return safemem.HeapOptions(true)
	case ToolPageProt:
		return pageprot.HeapOptions()
	default:
		return heap.Options{} // stock 8-byte-aligned malloc
	}
}

// Run executes one ⟨app, tool⟩ pair on a fresh machine and returns its
// result. The machine, heap, tool and workload are fully reconstructed per
// call, so runs are independent and deterministic for a given cfg.
func Run(appName string, tool Tool, cfg apps.Config) (*Result, error) {
	return RunWithMachine(appName, tool, cfg, machine.DefaultConfig())
}

// machinePools reuses bench machines, one pool per machine configuration.
// Building a 64 MiB machine costs tens of host milliseconds of arena
// zeroing, which dominates the short apps; a recycled machine is
// observationally identical to a fresh one (pinned by
// TestMachineRecycleEquivalence and the golden tables), so reuse changes
// host wall-clock only.
var machinePools sync.Map // machine.Config → *machine.Pool

// PoolStats reports (released, dropped) machine counts since process start,
// summed over every configuration's pool — the crash-safety pin that a run
// which errored or panicked is never repooled
// (TestPanickedMachineNeverRepooled).
func PoolStats() (released, dropped uint64) {
	st := poolTotals()
	return st.Released, st.Dropped
}

// PoolBuilt reports how many pooled-configuration machines were built cold
// since process start, summed over every configuration's pool.
func PoolBuilt() uint64 { return poolTotals().Built }

func poolTotals() machine.PoolStats {
	var sum machine.PoolStats
	machinePools.Range(func(_, p any) bool {
		st := p.(*machine.Pool).Stats()
		sum.Released += st.Released
		sum.Dropped += st.Dropped
		sum.Built += st.Built
		return true
	})
	return sum
}

// runHook, when non-nil, runs inside the simulated program just before the
// app body — test-only instrumentation for pinning the panic-discard path.
var runHook func()

// acquireMachine returns a pristine machine for mcfg and the pool it goes
// back to. A configuration carrying a per-run telemetry registry is never
// pooled — the registry is part of that run's output — so its machine is
// built fresh and comes with a nil pool, whose Done does nothing.
func acquireMachine(mcfg machine.Config) (*machine.Machine, *machine.Pool, error) {
	if mcfg.Telemetry != nil {
		m, err := machine.New(mcfg)
		return m, nil, err
	}
	p, ok := machinePools.Load(mcfg)
	if !ok {
		p, _ = machinePools.LoadOrStore(mcfg, machine.NewPool(mcfg))
	}
	pool := p.(*machine.Pool)
	m, err := pool.Get()
	return m, pool, err
}

// RunWithMachine is Run with an explicit machine configuration — used to
// evaluate hardware variants such as the Section 2.2.3 direct-ECC
// interface.
//
// The machine goes back to its pool only when the run terminated normally;
// a run that errored, failed setup or panicked drops it.
func RunWithMachine(appName string, tool Tool, cfg apps.Config, mcfg machine.Config) (*Result, error) {
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	if mcfg.Telemetry == nil && Telemetry != nil {
		mcfg.Telemetry = Telemetry.NewRegistry(appName + "/" + tool.String())
	}
	m, pool, err := acquireMachine(mcfg)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { pool.Done(m, clean) }()
	sseed := SampleSeed
	if sseed == 0 {
		sseed = uint64(cfg.Seed) ^ sampleSeedSalt
	}
	w, err := attachBench(m, tool, SampleRate, sseed)
	if err != nil {
		return nil, err
	}
	res := runBench(appName, app, tool, cfg, w)
	clean = res.Err == nil
	return res, nil
}

// benchWarmup is the warmed object set of one bench run: the machine plus
// the heap and tool stack attached to it. Only the attached tool's pointer
// is non-nil.
type benchWarmup struct {
	m       *machine.Machine
	alloc   *heap.Allocator
	smTool  *safemem.Tool
	pfTool  *purify.Tool
	ppTool  *pageprot.Tool
	mmpTool *mmp.Tool
	sampler *sampletool.Tool
}

// attachBench creates the bench heap and attaches the tool stack to m — the
// warmup every run of this ⟨tool, machine⟩ pair shares. rate and sseed only
// matter for ToolSample.
func attachBench(m *machine.Machine, tool Tool, rate int, sseed uint64) (*benchWarmup, error) {
	ho := heapOptionsFor(tool)
	ho.Limit = 48 << 20
	alloc, err := heap.New(m, ho)
	if err != nil {
		return nil, err
	}
	w := &benchWarmup{m: m, alloc: alloc}
	switch tool {
	case ToolNone:
	case ToolSafeMemML:
		w.smTool, err = safemem.Attach(m, alloc, SafeMemOptions(true, false))
	case ToolSafeMemMC:
		w.smTool, err = safemem.Attach(m, alloc, SafeMemOptions(false, true))
	case ToolSafeMemBoth:
		w.smTool, err = safemem.Attach(m, alloc, SafeMemOptions(true, true))
	case ToolSample:
		w.sampler, err = sampletool.Attach(m, alloc,
			sampletool.Options{Rate: rate, Seed: sseed, SafeMem: SafeMemOptions(true, true)})
	case ToolPurify:
		w.pfTool = purify.Attach(m, alloc, purify.DefaultOptions())
	case ToolPageProt:
		w.ppTool, err = pageprot.Attach(m, alloc, false)
	case ToolMMP:
		w.mmpTool = mmp.Attach(m, alloc, false)
	default:
		err = fmt.Errorf("bench: unknown tool %v", tool)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// runBench executes one app on an already-warmed machine and collects the
// result: everything per-run — resilience policy, fault process, scrub
// daemon, the run itself — happens here. Pool handling stays with the
// caller.
func runBench(appName string, app *apps.App, tool Tool, cfg apps.Config, w *benchWarmup) *Result {
	m, alloc := w.m, w.alloc
	res := &Result{App: appName, Tool: tool, Cfg: cfg}
	env := &apps.Env{M: m, Alloc: alloc}
	if w.pfTool != nil {
		env.AddRoot = w.pfTool.AddRoot
	}

	var fp *faultmodel.Process
	if Faults != nil && Faults.Rate > 0 {
		if Faults.Retire {
			m.Kern.SetResilience(kernel.ResilienceOptions{Policy: kernel.RetireAndContinue})
		}
		base, _ := alloc.ArenaRange()
		fc := faultmodel.Config{
			Seed:         uint64(cfg.Seed) ^ 0x5afe,
			MeanInterval: simtime.Cycles(1_000_000 / Faults.Rate),
			Targets:      []inject.Region{{Base: base, Size: alloc.Options().Limit}},
		}
		if Faults.Storm {
			fc.StormInterval = 8 * fc.MeanInterval
		}
		if !Faults.Retire {
			fc.DoubleBitFrac = -1
		}
		fp = faultmodel.Start(m, inject.New(m, inject.Config{Seed: cfg.Seed}), fc)
		m.Kern.StartScrubDaemon(kernel.ScrubDaemonOptions{})
	}

	runSpan := m.Telemetry.Tracer().Begin("run", appName+"/"+tool.String())
	start := time.Now()
	res.Err = m.Run(func() error {
		if runHook != nil {
			runHook()
		}
		return app.Run(env, cfg)
	})
	res.HostNS = time.Since(start).Nanoseconds()
	runSpan.End()
	if fp != nil {
		fp.Stop()
		res.FaultEvents = fp.Stats().Events + fp.Stats().Refires
	}
	res.Resilience = m.Kern.ResilienceStats()
	res.Cycles = m.Clock.Now()
	res.Instrs = m.Instructions()
	res.Heap = alloc.Stats()
	res.Machine = m.Stats()
	res.Cache = m.Cache.Stats()
	res.Ctrl = m.Ctrl.Stats()
	res.Kern = m.Kern.Stats()
	res.Registry = m.Telemetry

	smTool := w.smTool
	if w.sampler != nil {
		res.SampleStats = w.sampler.Stats()
		smTool = w.sampler.Inner()
	}
	if smTool != nil {
		res.SafeMem = smTool.Reports()
		for _, rep := range res.SafeMem {
			res.SafeMemExplain = append(res.SafeMemExplain, smTool.Explain(rep))
		}
		res.SafeMemStats = smTool.Stats()
		res.Groups = smTool.Groups()
	}
	if w.pfTool != nil {
		// An exit-time scan, as Purify performs when the program ends.
		w.pfTool.LeakScan()
		res.Purify = w.pfTool.Reports()
		res.PurifyStats = w.pfTool.Stats()
	}
	if w.ppTool != nil {
		res.PageProt = w.ppTool.Reports()
		res.PageProtStats = w.ppTool.Stats()
	}
	if w.mmpTool != nil {
		res.MMP = w.mmpTool.Reports()
		res.MMPStats = w.mmpTool.Stats()
	}
	m.Telemetry.Finish()
	return res
}

// RunWithOptions is Run with an explicit SafeMem configuration (used by the
// Table 5 pruning ablation). Only SafeMem tool kinds are supported.
func RunWithOptions(appName string, opts safemem.Options, cfg apps.Config) (*Result, error) {
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	mcfg := machine.DefaultConfig()
	if Telemetry != nil {
		mcfg.Telemetry = Telemetry.NewRegistry(appName + "/custom")
	}
	m, pool, err := acquireMachine(mcfg)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { pool.Done(m, clean) }()
	ho := safemem.HeapOptions(opts.DetectCorruption || opts.DetectUninitRead)
	ho.Limit = 48 << 20
	alloc, err := heap.New(m, ho)
	if err != nil {
		return nil, err
	}
	smTool, err := safemem.Attach(m, alloc, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{App: appName, Tool: ToolSafeMemBoth, Cfg: cfg}
	env := &apps.Env{M: m, Alloc: alloc}
	runSpan := m.Telemetry.Tracer().Begin("run", appName+"/custom")
	start := time.Now()
	res.Err = m.Run(func() error { return app.Run(env, cfg) })
	res.HostNS = time.Since(start).Nanoseconds()
	runSpan.End()
	res.Cycles = m.Clock.Now()
	res.Instrs = m.Instructions()
	res.Heap = alloc.Stats()
	res.Machine = m.Stats()
	res.Cache = m.Cache.Stats()
	res.Ctrl = m.Ctrl.Stats()
	res.Kern = m.Kern.Stats()
	res.Registry = m.Telemetry
	res.SafeMem = smTool.Reports()
	res.SafeMemStats = smTool.Stats()
	res.Groups = smTool.Groups()
	m.Telemetry.Finish()
	clean = res.Err == nil
	return res, nil
}

// RunSample is Run for the sampling tool at an explicit rate and decision
// seed. The sample-overhead table and the frontier experiment run cells
// with different rates concurrently, so they cannot share the package-
// level SampleRate knob.
func RunSample(appName string, rate int, seed uint64, cfg apps.Config) (*Result, error) {
	app, ok := apps.Get(appName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	mcfg := machine.DefaultConfig()
	if Telemetry != nil {
		mcfg.Telemetry = Telemetry.NewRegistry(appName + "/sample")
	}
	m, pool, err := acquireMachine(mcfg)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { pool.Done(m, clean) }()
	ho := safemem.HeapOptions(true)
	ho.Limit = 48 << 20
	alloc, err := heap.New(m, ho)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = uint64(cfg.Seed) ^ sampleSeedSalt
	}
	sampler, err := sampletool.Attach(m, alloc,
		sampletool.Options{Rate: rate, Seed: seed, SafeMem: SafeMemOptions(true, true)})
	if err != nil {
		return nil, err
	}
	res := &Result{App: appName, Tool: ToolSample, Cfg: cfg}
	env := &apps.Env{M: m, Alloc: alloc}
	runSpan := m.Telemetry.Tracer().Begin("run", appName+"/sample")
	start := time.Now()
	res.Err = m.Run(func() error { return app.Run(env, cfg) })
	res.HostNS = time.Since(start).Nanoseconds()
	runSpan.End()
	res.Cycles = m.Clock.Now()
	res.Instrs = m.Instructions()
	res.Heap = alloc.Stats()
	res.Machine = m.Stats()
	res.Cache = m.Cache.Stats()
	res.Ctrl = m.Ctrl.Stats()
	res.Kern = m.Kern.Stats()
	res.Registry = m.Telemetry
	res.SampleStats = sampler.Stats()
	res.SafeMem = sampler.Reports()
	res.SafeMemStats = sampler.SafeMemStats()
	res.Groups = sampler.Inner().Groups()
	m.Telemetry.Finish()
	clean = res.Err == nil
	return res, nil
}

// Overhead returns (tool − base) / base as a fraction.
func Overhead(base, withTool simtime.Cycles) float64 {
	if base == 0 {
		return 0
	}
	return (float64(withTool) - float64(base)) / float64(base)
}

// ClassifyLeaks splits SafeMem leak reports into true and false positives
// against the app's ground truth.
func ClassifyLeaks(app *apps.App, reports []safemem.BugReport) (truePos, falsePos int) {
	for _, r := range reports {
		if !r.Kind.IsLeak() {
			continue
		}
		if app.IsRealLeak != nil && app.IsRealLeak(r.Site, r.BufferSize) {
			truePos++
		} else {
			falsePos++
		}
	}
	return truePos, falsePos
}

// DetectedBug reports whether a SafeMem run (buggy inputs, full config)
// found the app's planted bug.
func DetectedBug(app *apps.App, res *Result) bool {
	for _, r := range res.SafeMem {
		switch app.Class {
		case apps.ClassALeak:
			if r.Kind == safemem.BugALeak && app.IsRealLeak != nil && app.IsRealLeak(r.Site, r.BufferSize) {
				return true
			}
		case apps.ClassSLeak:
			if r.Kind == safemem.BugSLeak && app.IsRealLeak != nil && app.IsRealLeak(r.Site, r.BufferSize) {
				return true
			}
		case apps.ClassOverflow:
			if r.Kind == safemem.BugOverflow || r.Kind == safemem.BugUnderflow {
				return true
			}
		case apps.ClassFreedAccess:
			if r.Kind == safemem.BugFreedAccess {
				return true
			}
		}
	}
	return false
}
