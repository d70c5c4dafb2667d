package campaign

import (
	"context"
	"fmt"

	safemem "safemem/internal/core"
	"safemem/internal/faultmodel"
	"safemem/internal/heap"
	"safemem/internal/inject"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/sampletool"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// ToolConfig selects which SafeMem detectors a scenario runs under.
type ToolConfig int

const (
	// CfgNone runs uninstrumented — the overhead baseline, and a crash
	// canary for the generator itself.
	CfgNone ToolConfig = iota
	// CfgML enables only leak detection.
	CfgML
	// CfgMC enables only corruption detection.
	CfgMC
	// CfgBoth enables the full tool.
	CfgBoth
	// CfgSample runs the GWP-ASan-style sampling tool: corruption detection
	// over the ~1/N sampled allocation pool only (internal/sampletool). A
	// plant whose allocation was not sampled is an expected sampled-miss,
	// not a violation — the oracle checks ExecResult.SampledSites.
	CfgSample
)

// AllConfigs lists every configuration, baseline first.
var AllConfigs = []ToolConfig{CfgNone, CfgML, CfgMC, CfgBoth, CfgSample}

// String names the configuration (also the -tool flag vocabulary).
func (c ToolConfig) String() string {
	switch c {
	case CfgNone:
		return "none"
	case CfgML:
		return "ml"
	case CfgMC:
		return "mc"
	case CfgBoth:
		return "both"
	case CfgSample:
		return "sample"
	default:
		return fmt.Sprintf("ToolConfig(%d)", int(c))
	}
}

// Leaks reports whether the configuration detects memory leaks. The
// sampling tool deliberately does not: leak heuristics compare a group's
// live population against full-population thresholds, which a sampled
// sub-population cannot meet deterministically (GWP-ASan makes the same
// scoping choice — sampling targets corruption).
func (c ToolConfig) Leaks() bool { return c == CfgML || c == CfgBoth }

// Corruption reports whether the configuration detects memory corruption
// (for CfgSample: on sampled allocations only).
func (c ToolConfig) Corruption() bool { return c == CfgMC || c == CfgBoth || c == CfgSample }

// ParseToolConfig resolves a -tool flag value.
func ParseToolConfig(s string) (ToolConfig, error) {
	for _, c := range AllConfigs {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown tool config %q (want none|ml|mc|both|sample)", s)
}

// Tuning returns the SafeMem options every campaign run uses: the stock
// detection logic with windows scaled to the generator's scenario lengths
// (a few million cycles, versus the multi-second server runs the default
// options target). The generator's timing constants are sized against
// these values; TestGeneratorTimingInvariants pins the relationships.
func Tuning() safemem.Options {
	o := safemem.DefaultOptions()
	o.WarmupTime = 200_000
	o.CheckingPeriod = 100_000
	o.ALeakLiveThreshold = 16
	o.ALeakRecentWindow = 400_000
	o.SLeakStableTime = 200_000
	o.SLeakLifetimeFactor = 2.0
	o.LifetimeTolerance = 0.25
	o.LeakConfirmTime = 300_000
	o.MaxSuspectsPerGroup = 3
	// Campaign verdicts are strict — every planted bug must be caught — so
	// the machine-wide corruption-arming pause must never engage at campaign
	// fault densities (a paused detector would turn plants into "missed"
	// noise). The pause itself is pinned by the core degradation tests;
	// per-line quarantine keeps its stock threshold and IS exercised here
	// (the flaky-line template).
	o.DegradeErrorThreshold = 256
	return o
}

// Env is the execution environment a whole campaign shares: the sabotage
// self-test switch and the hardware-fault knobs (the -fault-rate, -storm and
// -retire flags).
type Env struct {
	// Sabotage silently disables corruption detection while the declared
	// configuration still claims it (see Execute).
	Sabotage bool
	// FaultRate, when positive, runs a background DRAM fault process over
	// the heap arena at this many fault events per million cycles, seeded
	// from the scenario seed.
	FaultRate float64
	// Storm enables error-storm episodes in the fault process.
	Storm bool
	// Retire switches the kernel to RetireAndContinue. Without it the fault
	// process is restricted to single-bit (correctable) plants: a random
	// double-bit fault on an unwatched line would panic the stock kernel,
	// and a crash the generator did not plan is oracle noise, not signal.
	Retire bool
	// SampleRate is the sampling rate N for CfgSample runs (≤ 0 means
	// sampletool.DefaultRate). Other configurations ignore it.
	SampleRate int
	// SampleSeed, when non-zero, overrides the sampling-decision seed; zero
	// derives it from the scenario seed, keeping campaigns shard-
	// deterministic. The frontier experiment sets it per fleet member.
	SampleSeed uint64
	// Ctx, when non-nil, is polled between scenario ops: once it is
	// cancelled the run terminates with the context's error as ExecResult.Err
	// and the machine is discarded, not repooled. This is the serving
	// layer's deadline/drain integration point; it is host-side only, so an
	// environment whose context never fires yields bit-identical results to
	// one with no context at all.
	Ctx context.Context
	// Hook, when non-nil, runs host-side before each op (with the op index).
	// A non-nil return terminates the run with that error; a panic unwinds
	// through Machine.Run's recover untouched. The fleet's chaos mode uses
	// it to inject stuck, slow and crashing simulations mid-run; like Ctx it
	// never influences the simulation when it stays passive.
	Hook func(op int) error
}

// faultModel reports whether the environment runs the background process.
func (e Env) faultModel() bool { return e.FaultRate > 0 }

// ExecResult is everything one scenario run produced.
type ExecResult struct {
	// Err is the run's abnormal termination, if any (kernel panic,
	// segmentation fault). Campaign scenarios are constructed to run to
	// completion, so any error is an oracle violation.
	Err error
	// Reports are SafeMem's bug reports in detection order (empty under
	// CfgNone).
	Reports []safemem.BugReport
	// Stats are SafeMem's activity counters.
	Stats safemem.Stats
	// Cycles is the simulated duration of the run.
	Cycles simtime.Cycles
	// HWPlanted counts hardware faults actually planted (OpHWFault executes
	// only under configurations that declare corruption detection).
	HWPlanted int
	// CEPlanted counts scripted correctable single-bit plants (OpCEFault,
	// planted under every configuration).
	CEPlanted int
	// Corrected is the controller's total of corrected single-bit errors
	// (demand corrections plus scrub corrections).
	Corrected uint64
	// Resilience is the kernel's hardware-fault survival counters.
	Resilience kernel.ResilienceStats
	// FaultEvents counts background fault-process events (zero unless the
	// environment enables the fault model).
	FaultEvents uint64
	// FaultModel and Retire echo the environment, so the oracle knows which
	// hardware invariants apply to this run.
	FaultModel bool
	Retire     bool
	// SampleRate echoes the effective sampling rate of a CfgSample run
	// (zero otherwise).
	SampleRate int
	// SampledSites records, for CfgSample runs, whether the most recent
	// allocation at each call site was admitted to the sampled pool — the
	// ground truth the oracle needs to tell a sampled-miss from a real
	// miss. Plant sites allocate exactly once, so last-wins is exact.
	SampledSites map[uint64]bool
}

// execMemBytes is the simulated DRAM size of every executor machine.
const execMemBytes = 32 << 20

// execConfig is the machine configuration every scenario run draws from the
// process-wide machine pool. A campaign runs every scenario under several
// configurations (the baseline plus every judged one); a recycled machine
// keeps the DRAM chunks, cache and page tables it already allocated, and the
// heap, tool, injector, fault-process and slot storage the previous run on
// it left behind (machine.PutSpare), so a steady-state run allocates little
// beyond its results. Recycled machines are observationally identical to
// fresh ones — pinned by TestMachineRecycleEquivalence in internal/machine
// and by the Reference sweep here (reference_test.go), which sets Reference
// on this value — so pooling changes host time only, never simulated
// results.
var execConfig = machine.Config{MemBytes: execMemBytes}

type slotState struct {
	addr      vm.VAddr
	size      uint64
	allocated bool
	ever      bool
}

// Execute runs one scenario under one tool configuration on a fresh
// machine. With sabotage set, corruption detection is silently disabled
// while the configuration still declares it — the oracle keeps judging
// against the declared configuration, so sabotaged runs produce violations;
// this is the harness's own self-test (and the -sabotage CLI flag).
//
// Every configuration uses the corruption-ready heap layout (line-aligned
// with guard padding) so out-of-bounds offsets land in mapped guard space
// under every configuration and heap addresses are comparable across them.
func Execute(s *Scenario, cfg ToolConfig, sabotage bool) (*ExecResult, error) {
	return ExecuteEnv(s, cfg, Env{Sabotage: sabotage})
}

// ExecuteEnv is Execute under an explicit environment. With a fault rate
// set, the run happens "on flaky DIMMs": a seed-deterministic background
// fault process plants transient/intermittent/stuck-at faults over the heap
// arena while the scenario executes, the kernel runs its background scrub
// daemon, and (with Retire) survives uncorrectable errors by page
// retirement instead of panicking. The fault process derives its stream
// from the scenario seed, so runs stay deterministic at any shard count.
//
// The machine comes from the machine pool and goes back to it only when
// the run terminated normally; a run that errored, failed setup or panicked
// drops it (machine.Pool's taint rule).
func ExecuteEnv(s *Scenario, cfg ToolConfig, env Env) (*ExecResult, error) {
	m, err := machine.Get(execConfig)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { machine.Done(m, clean) }()

	ho := safemem.HeapOptions(true)
	ho.Limit = 16 << 20
	alloc, err := heap.New(m, ho)
	if err != nil {
		return nil, err
	}
	opts := Tuning()
	opts.DetectLeaks = cfg.Leaks()
	opts.DetectCorruption = cfg.Corruption() && !env.Sabotage
	var tool *safemem.Tool
	var sampler *sampletool.Tool
	switch cfg {
	case CfgNone:
	case CfgSample:
		so := sampletool.Options{Rate: env.SampleRate, Seed: env.SampleSeed, SafeMem: opts}.WithDefaults(s.Seed)
		sampler, err = sampletool.Attach(m, alloc, so)
	default:
		tool, err = safemem.Attach(m, alloc, opts)
	}
	if err != nil {
		return nil, err
	}

	needInject := env.faultModel()
	for _, op := range s.Ops {
		if op.Kind == OpHWFault || op.Kind == OpCEFault {
			needInject = true
			break
		}
	}
	var in *inject.Injector
	if needInject {
		in = inject.New(m, inject.Config{Seed: int64(s.Seed)})
	}
	fp := faultmodel.StartFlaky(m, in, alloc, s.Seed, env.FaultRate, env.Storm, env.Retire)

	res := &ExecResult{FaultModel: env.faultModel(), Retire: env.Retire}
	if sampler != nil {
		res.SampleRate = sampler.Options().Rate
		res.SampledSites = make(map[uint64]bool)
	}
	nslots := 0
	for _, op := range s.Ops {
		if op.Slot >= nslots {
			nslots = op.Slot + 1
		}
	}
	sc, _ := m.TakeSpare(slotsKey{}).(*execSlots)
	if sc == nil {
		sc = new(execSlots)
	}
	sc.s = append(sc.s[:0], make([]slotState, nslots)...)
	slots := sc.s

	// Skip semantics make every subsequence of a valid script executable —
	// the property the shrinker relies on: ops on never-allocated slots are
	// skipped, double frees are skipped, but accesses to freed slots do run
	// (the slot keeps its last address, which is what use-after-free means).
	res.Err = m.Run(func() error {
		for opi, op := range s.Ops {
			if env.Hook != nil {
				if herr := env.Hook(opi); herr != nil {
					return herr
				}
			}
			if env.Ctx != nil {
				if cerr := env.Ctx.Err(); cerr != nil {
					return cerr
				}
			}
			switch op.Kind {
			case OpAlloc:
				sl := &slots[op.Slot]
				m.Call(op.Site)
				addr, aerr := alloc.Malloc(op.Size)
				m.Return()
				if aerr != nil {
					sl.allocated = false
					continue
				}
				*sl = slotState{addr: addr, size: op.Size, allocated: true, ever: true}
				if sampler != nil {
					res.SampledSites[op.Site] = sampler.Sampled(addr)
				}
			case OpFree:
				sl := &slots[op.Slot]
				if !sl.allocated {
					continue
				}
				if ferr := alloc.Free(sl.addr); ferr != nil {
					return ferr
				}
				sl.allocated = false
			case OpWrite:
				sl := &slots[op.Slot]
				if !sl.ever {
					continue
				}
				m.Memset(vaddrOff(sl.addr, op.Off), 0xa5, op.Size)
			case OpRead:
				sl := &slots[op.Slot]
				if !sl.ever {
					continue
				}
				base := vaddrOff(sl.addr, op.Off)
				for i := uint64(0); i < op.Size; i++ {
					m.Load8(base + vm.VAddr(i))
				}
			case OpAdvance:
				m.Compute(op.Size)
			case OpHWFault:
				sl := &slots[op.Slot]
				if !sl.ever || !cfg.Corruption() {
					continue
				}
				// Under sampling, only sampled (watched) buffers take the
				// scripted double-bit plant: on an unwatched pad line it
				// would be an unplanned kernel panic, and the hardware
				// invariant (plants == repairs) only holds for watched pads.
				if sampler != nil && !sampler.Sampled(sl.addr) {
					continue
				}
				pad := vaddrOff(sl.addr, int64(roundLine(sl.size)))
				if in.PlantAt(pad, true) {
					res.HWPlanted++
				}
			case OpCEFault:
				sl := &slots[op.Slot]
				if !sl.ever {
					continue
				}
				if in.PlantAt(vaddrOff(sl.addr, op.Off), false) {
					res.CEPlanted++
				}
			}
		}
		return nil
	})

	if fp != nil {
		// Quiesce the physics before the exit pass so shutdown's unwatching
		// runs against a fixed fault population.
		fp.Stop()
		res.FaultEvents = fp.Stats().Events + fp.Stats().Refires
	}
	if res.Err == nil {
		// The exit pass: confirm aged suspects, disarm every watch.
		if tool != nil {
			tool.Shutdown()
		}
		if sampler != nil {
			sampler.Shutdown()
		}
	}
	res.Cycles = m.Clock.Now()
	cs := m.Ctrl.Stats()
	res.Corrected = cs.CorrectedSingle + cs.ScrubCorrected
	res.Resilience = m.Kern.ResilienceStats()
	if tool != nil {
		res.Reports = tool.Reports()
		res.Stats = tool.Stats()
	}
	if sampler != nil {
		res.Reports = sampler.Reports()
		res.Stats = sampler.SafeMemStats()
	}
	clean = res.Err == nil
	if clean {
		// The results are copied out: leave the per-run storage to the
		// next run on this machine.
		alloc.Release()
		if tool != nil {
			tool.Release()
		}
		if sampler != nil {
			sampler.Release()
		}
		if in != nil {
			in.Release()
		}
		if fp != nil {
			fp.Release()
		}
		m.PutSpare(slotsKey{}, sc)
	}
	return res, nil
}

// execSlots is ExecuteEnv's slot table, kept on the machine between runs.
type execSlots struct{ s []slotState }

// slotsKey is the machine spare slot of an execSlots.
type slotsKey struct{}
