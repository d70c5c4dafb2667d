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
// result slot, on up to workers goroutines (the experiments pass Parallel),
// reporting each finished cell to the Progress hook under label. Cells must
// not share simulator state (each run gets its own pristine machine). The
// returned error is the lowest-indexed cell error, matching what a
// sequential sweep would have reported first; later cells still run to
// completion either way.
func runCells(label string, workers, n int, cell func(i int) error) error {
	var done atomic.Int64
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
	// applied to a ~1/N sampled allocation pool (N is Spec.SampleRate),
	// everything else unwatched (internal/sampletool).
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

// ParseTool resolves a tool name, the inverse of Tool.String (the
// safemem-run -tool and fleet app-job vocabulary).
func ParseTool(s string) (Tool, error) {
	for t := ToolNone; t <= ToolSample; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown tool %q", s)
}

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
	// cycles).
	Instrs uint64
	// HostNS is host wall-clock spent inside Machine.Run — the simulated
	// program only, excluding machine construction/recycling, heap setup and
	// tool attachment. The repository benchmark's traced apps runs divide
	// it by Instrs for their per-app host ns/instr rows.
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
	// Spec.FaultRate is positive).
	Resilience  kernel.ResilienceStats
	FaultEvents uint64

	// Registry is the run's telemetry registry (always non-nil; shared with
	// the package-level Session when one is installed). Without a Session
	// it is the pooled machine's quiet registry, which the next run on that
	// machine reuses.
	Registry *telemetry.Registry
}

// Spec is one ⟨application, tool⟩ run. Only App, Tool and Cfg are
// required; every other field's zero value is the stock evaluation.
type Spec struct {
	App  string
	Tool Tool
	Cfg  apps.Config
	// Machine is the machine configuration — a hardware variant such as
	// the Section 2.2.3 direct-ECC interface, or a Reference machine. The
	// zero value means machine.DefaultConfig().
	Machine machine.Config
	// SafeMem, when non-nil, replaces the tool's SafeMemOptions (for
	// ToolSample, the inner detector's) — the Table 5 pruning ablation.
	// Setting it for a tool without a SafeMem detector is an error.
	SafeMem *safemem.Options
	// SampleRate is the sampling rate N of a ToolSample run (≤ 0 means
	// sampletool.DefaultRate); the decision seed derives from Cfg.Seed.
	SampleRate int
	// FaultRate, when positive, runs on flaky DIMMs
	// (faultmodel.StartFlaky): a fault process of this many events per
	// million cycles seeded from Cfg.Seed, the scrub daemon, error storms
	// with Storm, and page retirement with Retire. Storm and Retire apply
	// only with a positive FaultRate.
	FaultRate     float64
	Storm, Retire bool
}

// Run executes one ⟨app, tool⟩ pair on a pristine default machine.
func Run(appName string, tool Tool, cfg apps.Config) (*Result, error) {
	return RunSpec(Spec{App: appName, Tool: tool, Cfg: cfg})
}

// safeMemOptions returns the options of tool's SafeMem detector (the inner
// one for ToolSample), and false for a tool without one.
func safeMemOptions(tool Tool) (safemem.Options, bool) {
	switch tool {
	case ToolSafeMemML:
		return SafeMemOptions(true, false), true
	case ToolSafeMemMC:
		return SafeMemOptions(false, true), true
	case ToolSafeMemBoth, ToolSample:
		return SafeMemOptions(true, true), true
	}
	return safemem.Options{}, false
}

// machinePools reuses bench machines, one pool per machine configuration.
// A recycled machine keeps the cache arrays, page tables and DRAM chunks a
// cold build and its first run allocate; it is observationally identical
// to a fresh one (pinned by TestMachineRecycleEquivalence and the golden
// tables), so reuse changes host wall-clock only.
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

// RunSpec executes one run on a pristine machine and returns its result.
// The heap, tool and workload are rebuilt per call, so runs are
// independent and deterministic for a given spec.
//
// The machine goes back to its pool only when the run terminated normally;
// a run that errored, failed setup or panicked drops it.
func RunSpec(spec Spec) (*Result, error) {
	app, ok := apps.Get(spec.App)
	if !ok {
		return nil, fmt.Errorf("bench: unknown app %q", spec.App)
	}
	tool, cfg := spec.Tool, spec.Cfg
	smOpts, hasSafeMem := safeMemOptions(tool)
	label := spec.App + "/" + tool.String()
	if spec.SafeMem != nil {
		if !hasSafeMem {
			return nil, fmt.Errorf("bench: tool %v has no SafeMem options to set", tool)
		}
		smOpts = *spec.SafeMem
		label = spec.App + "/custom"
	}
	mcfg := spec.Machine
	if mcfg == (machine.Config{}) {
		mcfg = machine.DefaultConfig()
	}
	if mcfg.Telemetry == nil && Telemetry != nil {
		mcfg.Telemetry = Telemetry.NewRegistry(label)
	}
	m, pool, err := acquireMachine(mcfg)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { pool.Done(m, clean) }()

	var ho heap.Options // stock 8-byte-aligned malloc
	switch {
	case hasSafeMem:
		ho = safemem.HeapOptions(smOpts.DetectCorruption || smOpts.DetectUninitRead)
	case tool == ToolPageProt:
		ho = pageprot.HeapOptions()
	}
	ho.Limit = 48 << 20
	alloc, err := heap.New(m, ho)
	if err != nil {
		return nil, err
	}
	env := &apps.Env{M: m, Alloc: alloc}
	var (
		smTool  *safemem.Tool
		sampler *sampletool.Tool
		pfTool  *purify.Tool
		ppTool  *pageprot.Tool
		mmpTool *mmp.Tool
	)
	switch tool {
	case ToolNone:
	case ToolSafeMemML, ToolSafeMemMC, ToolSafeMemBoth:
		smTool, err = safemem.Attach(m, alloc, smOpts)
	case ToolSample:
		so := sampletool.Options{Rate: spec.SampleRate, SafeMem: smOpts}.WithDefaults(uint64(cfg.Seed))
		sampler, err = sampletool.Attach(m, alloc, so)
		if err == nil {
			smTool = sampler.Inner()
		}
	case ToolPurify:
		pfTool = purify.Attach(m, alloc, purify.DefaultOptions())
		env.AddRoot = pfTool.AddRoot
	case ToolPageProt:
		ppTool, err = pageprot.Attach(m, alloc, false)
	case ToolMMP:
		mmpTool = mmp.Attach(m, alloc, false)
	default:
		err = fmt.Errorf("bench: unknown tool %v", tool)
	}
	if err != nil {
		return nil, err
	}

	var fp *faultmodel.Process
	if spec.FaultRate > 0 {
		in := inject.New(m, inject.Config{Seed: cfg.Seed})
		fp = faultmodel.StartFlaky(m, in, alloc, uint64(cfg.Seed), spec.FaultRate, spec.Storm, spec.Retire)
	}

	res := &Result{App: spec.App, Tool: tool, Cfg: cfg}
	runSpan := m.Telemetry.Tracer().Begin("run", label)
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

	if sampler != nil {
		res.SampleStats = sampler.Stats()
	}
	if smTool != nil {
		res.SafeMem = smTool.Reports()
		for _, rep := range res.SafeMem {
			res.SafeMemExplain = append(res.SafeMemExplain, smTool.Explain(rep))
		}
		res.SafeMemStats = smTool.Stats()
		res.Groups = smTool.Groups()
	}
	if pfTool != nil {
		// An exit-time scan, as Purify performs when the program ends.
		pfTool.LeakScan()
		res.Purify = pfTool.Reports()
		res.PurifyStats = pfTool.Stats()
	}
	if ppTool != nil {
		res.PageProt = ppTool.Reports()
		res.PageProtStats = ppTool.Stats()
	}
	if mmpTool != nil {
		res.MMP = mmpTool.Reports()
		res.MMPStats = mmpTool.Stats()
	}
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
