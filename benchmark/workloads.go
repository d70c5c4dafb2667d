package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/campaign"
	"safemem/internal/fleet"
)

// workload is one set of inputs the benchmark drives through the simulator.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines.
	clients int
	// warmOps ops run untimed before measuring; checkOps ops at the start of
	// every run are replayed and digested; the per-layer counts are summed
	// over the first countOps ops, so for a given seed they repeat exactly.
	// countOps is about half of what a traced run completes on a two-core
	// machine slowed twofold by other tenants.
	warmOps, checkOps, countOps int
	start                       func() (session, error)
}

// session is one workload instance inside a measuring process.
type session interface {
	// op runs op i on input seed, filling r and recording spans into tr.
	op(seed uint64, i int, r *opRecord, tr *spanLog)
	// replay re-executes op i's simulated work and returns its output.
	replay(seed uint64, i int) ([]byte, error)
}

var workloads = []*workload{
	{
		name: "apps-bare",
		why: "the seven paper apps uninstrumented, one client, one app run per op: the access " +
			"path (machine, batch lane, cache, vm, known-clean reads) does nearly all the work",
		clients: 1, warmOps: 7, checkOps: 32, countOps: 140,
		start: func() (session, error) { return &appsSession{tool: bench.ToolNone}, nil },
	},
	{
		name: "apps-safemem",
		why: "the same apps under full SafeMem, the paper's production configuration: watch " +
			"syscalls, bus locks, cache flushes, scramble decodes and leak checks",
		clients: 1, warmOps: 7, checkOps: 32, countOps: 140,
		start: func() (session, error) { return &appsSession{tool: bench.ToolSafeMemBoth}, nil },
	},
	{
		name: "campaign",
		why: "generated bug scenarios judged under ml/mc/both/sample: short allocation-dense " +
			"runs where machine set-up, heap, core and the oracle dominate",
		clients: runtime.NumCPU(), warmOps: 64, checkOps: 32, countOps: 6000,
		start: func() (session, error) { return &campaignSession{}, nil },
	},
	{
		name: "campaign-storm",
		why: "the campaign on flaky DIMMs (fault rate 40, storms, page retirement): ECC " +
			"correction, scrubbing and retirement on dirty lines",
		clients: runtime.NumCPU(), warmOps: 64, checkOps: 32, countOps: 6000,
		start: func() (session, error) {
			return &campaignSession{env: campaign.Env{FaultRate: 40, Storm: true, Retire: true}}, nil
		},
	},
	{
		name: "fleet",
		why: "the detection fleet in-process under a scenario/storm/app job mix: closed-loop " +
			"clients for jobs/s and latency; traced runs add an open loop at 400 jobs/s",
		clients: runtime.NumCPU(), warmOps: 32, checkOps: 64, countOps: 4000,
		start: startFleet,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// appsSession runs one paper app per op, cycling through the seven in
// Table 1 order, so every seven consecutive ops are one pass.
type appsSession struct{ tool bench.Tool }

func (s *appsSession) op(seed uint64, i int, r *opRecord, tr *spanLog) {
	name := appNames[i%len(appNames)]
	t0 := time.Now()
	res, err := bench.Run(name, s.tool, apps.Config{Seed: int64(seed)})
	d := time.Since(t0)
	r.simNS = d.Nanoseconds()
	tr.add("bench.Run", name, i, t0, d)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		r.failed = true
		r.out = fmt.Appendf(r.out, "%s error: %v\n", name, err)
		return
	}
	r.out = fmt.Appendf(r.out, "%s %d %d %d\n", name, res.Cycles, res.Instrs, len(res.SafeMem))
	t := &r.t
	t[cCycles] = uint64(res.Cycles)
	t[cInstrs] = res.Instrs
	t[cCPICycles] = uint64(res.Cycles)
	t[cLoads] = res.Machine.Loads
	t[cStores] = res.Machine.Stores
	t[cCacheHits] = res.Cache.Hits
	t[cCacheMisses] = res.Cache.Misses
	t[cWritebacks] = res.Cache.WriteBacks
	t[cFlushes] = res.Cache.Flushes
	t[cLineReads] = res.Ctrl.LineReads
	t[cLineWrites] = res.Ctrl.LineWrites
	t[cCorrected] = res.Ctrl.CorrectedSingle + res.Ctrl.ScrubCorrected
	t[cWatchCalls] = res.Kern.WatchCalls
	t[cDisableCalls] = res.Kern.DisableCalls
	t[cECCFaults] = res.Kern.ECCFaultsHandled
	t[cPagesRetired] = res.Resilience.PagesRetired
	t[cLeakChecks] = res.SafeMemStats.LeakChecks
	t[cSuspectsPruned] = res.SafeMemStats.SuspectsPruned
	t[cHWErrors] = res.SafeMemStats.HardwareErrors
	t[cMallocs] = res.Heap.Mallocs
	t[cFaultEvents] = res.FaultEvents
}

func (s *appsSession) replay(seed uint64, i int) ([]byte, error) {
	var r opRecord
	s.op(seed, i, &r, nil)
	return r.out, nil
}

// judged are the configurations a campaign op judges after its baseline.
var judged = []campaign.ToolConfig{campaign.CfgML, campaign.CfgMC, campaign.CfgBoth, campaign.CfgSample}

// campaignSession runs one generated scenario per op: the uninstrumented
// baseline, then every judged configuration through the oracle.
type campaignSession struct{ env campaign.Env }

func (s *campaignSession) op(seed uint64, i int, r *opRecord, tr *spanLog) {
	t0 := time.Now()
	sc := campaign.Generate(seed)
	tr.add("campaign.Generate", "", i, t0, time.Since(t0))
	allocs := uint64(0)
	for _, op := range sc.Ops {
		if op.Kind == campaign.OpAlloc {
			allocs++
		}
	}
	for _, tc := range append([]campaign.ToolConfig{campaign.CfgNone}, judged...) {
		t1 := time.Now()
		res, err := campaign.ExecuteEnv(sc, tc, s.env)
		d := time.Since(t1)
		r.simNS += d.Nanoseconds()
		tr.add("campaign.ExecuteEnv", tc.String(), i, t1, d)
		if err != nil {
			r.failed = true
			r.out = fmt.Appendf(r.out, "%s error: %v\n", tc, err)
			continue
		}
		r.out = fmt.Appendf(r.out, "%s %d", tc, res.Cycles)
		t := &r.t
		t[cCycles] += uint64(res.Cycles)
		t[cCorrected] += res.Corrected
		t[cPagesRetired] += res.Resilience.PagesRetired
		t[cLeakChecks] += res.Stats.LeakChecks
		t[cSuspectsPruned] += res.Stats.SuspectsPruned
		t[cHWErrors] += res.Stats.HardwareErrors
		t[cMallocs] += allocs
		t[cFaultEvents] += res.FaultEvents
		if tc == campaign.CfgNone {
			r.out = append(r.out, '\n')
			continue
		}
		t2 := time.Now()
		v := campaign.Judge(sc, tc, res)
		tr.add("campaign.Judge", tc.String(), i, t2, time.Since(t2))
		r.out = fmt.Appendf(r.out, " %d %d %d %d %d %d\n", v.TruePositives, v.FalsePositives,
			v.Missed, v.ExpectedMisses, v.SampledMisses, len(v.Violations))
		t[cViolations] += uint64(len(v.Violations))
		for _, vio := range v.Violations {
			r.violations = append(r.violations, violation{seed: vio.Seed, config: vio.Config,
				kind: string(vio.Kind), detail: vio.Detail, env: envFlags(s.env)})
		}
	}
}

func (s *campaignSession) replay(seed uint64, i int) ([]byte, error) {
	var r opRecord
	s.op(seed, i, &r, nil)
	return r.out, nil
}

// envFlags renders the safemem-fuzz flags that reproduce a campaign
// environment.
func envFlags(env campaign.Env) string {
	if env.FaultRate <= 0 {
		return ""
	}
	s := fmt.Sprintf("-fault-rate=%g", env.FaultRate)
	if env.Storm {
		s += " -storm"
	}
	if env.Retire {
		s += " -retire"
	}
	return s
}

// fleetMix is the job mix of every 16 consecutive fleet jobs: ten scenario
// jobs over the five campaign configurations, two storm scenarios, and four
// app jobs (three gzip, one tar) under full SafeMem, interleaved.
var fleetMix = []fleet.JobSpec{
	{Kind: fleet.KindScenario, Tool: "none"},
	{Kind: fleet.KindScenario, Tool: "ml"},
	{Kind: fleet.KindApp, App: "gzip", Tool: "safemem"},
	{Kind: fleet.KindScenario, Tool: "mc"},
	{Kind: fleet.KindScenario, Tool: "both"},
	{Kind: fleet.KindScenario, Tool: "both", FaultRate: 40, Storm: true, Retire: true},
	{Kind: fleet.KindScenario, Tool: "sample"},
	{Kind: fleet.KindApp, App: "gzip", Tool: "safemem"},
	{Kind: fleet.KindScenario, Tool: "none"},
	{Kind: fleet.KindScenario, Tool: "ml"},
	{Kind: fleet.KindApp, App: "tar", Tool: "safemem"},
	{Kind: fleet.KindScenario, Tool: "mc"},
	{Kind: fleet.KindScenario, Tool: "both", FaultRate: 40, Storm: true, Retire: true},
	{Kind: fleet.KindScenario, Tool: "both"},
	{Kind: fleet.KindApp, App: "gzip", Tool: "safemem"},
	{Kind: fleet.KindScenario, Tool: "sample"},
}

func jobSpec(seed uint64, i int) fleet.JobSpec {
	spec := fleetMix[i%len(fleetMix)]
	spec.Seed = seed
	return spec
}

const (
	// fleetQueueDepth is deep enough that a rejection means real overload,
	// not two arrivals landing in the same scheduler tick.
	fleetQueueDepth = 1024
	// openRate is the open-loop phase's offered load in jobs per second:
	// about a fifth of the closed loop's throughput on a quiet two-core
	// machine and under half of it when other tenants slow the machine
	// twofold. At 800 jobs/s the slowed fleet ran its workers 99% busy,
	// with a queue growing towards overflow.
	openRate = 400
	// lateLimit is how late the open-loop generator may send before the
	// send counts as late (loadgen.late_frac).
	lateLimit = 2 * time.Millisecond
	// fleetLatencyLimit is the limit on the open loop's p99 job latency.
	fleetLatencyLimit = 25 * time.Millisecond
	// waitPoll is how long a closed-loop client waits for its job's executor
	// to return before it falls back to polling the job's state; waitSpins
	// is how many times it yields before each poll sleeps a millisecond.
	waitPoll  = time.Second
	waitSpins = 100
)

// fleetSession drives an in-process fleet. Closed-loop clients submit a job
// and wait for it to reach a terminal state; the fleet's executor is the
// default fleet.Execute, wrapped only to wake the waiting client.
type fleetSession struct {
	f       *fleet.Fleet
	waiters sync.Map // fleet.JobSpec → chan struct{}
}

func startFleet() (session, error) {
	s := &fleetSession{}
	s.f = fleet.Start(fleet.Config{Workers: runtime.NumCPU(), QueueDepth: fleetQueueDepth, Exec: s.exec})
	return s, nil
}

func (s *fleetSession) exec(ctx context.Context, spec fleet.JobSpec, hook func(int) error) (json.RawMessage, error) {
	// Deferred, so an attempt that panics (the fleet records it as crashed)
	// wakes its client too.
	defer func() {
		if ch, ok := s.waiters.LoadAndDelete(spec); ok {
			close(ch.(chan struct{}))
		}
	}()
	return fleet.Execute(ctx, spec, hook)
}

func (s *fleetSession) op(seed uint64, i int, r *opRecord, tr *spanLog) {
	spec := jobSpec(seed, i)
	done := make(chan struct{})
	s.waiters.Store(spec, done)
	t0 := time.Now()
	job, err := s.f.Submit(spec)
	tr.add("fleet.Submit", spec.Kind, i, t0, time.Since(t0))
	if err != nil {
		s.waiters.Delete(spec)
		r.failed, r.rejected = true, true
		r.out = fmt.Appendf(r.out, "rejected: %v", err)
		return
	}
	t1 := time.Now()
	// The executor wakes us when the first attempt returns, a few
	// microseconds before the fleet records the job's state. A retried job,
	// or one whose attempt the watchdog abandoned, gets there later, so after
	// a short spin the client polls, and it polls anyway when no attempt
	// returns within waitPoll.
	wait := time.NewTimer(waitPoll)
	select {
	case <-done:
	case <-wait.C:
	}
	wait.Stop()
	for spin := 0; ; spin++ {
		if job, _ = s.f.Get(job.ID); job.State.Terminal() {
			break
		}
		if spin < waitSpins {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	tr.add("fleet.wait", spec.Kind, i, t1, time.Since(t1))
	tallyJob(job, r)
}

// jobPayload is the union of the fields the benchmark reads from scenario
// and app job results.
type jobPayload struct {
	Kind           string               `json:"kind"`
	Cycles         uint64               `json:"cycles"`
	Instrs         uint64               `json:"instrs"`
	Mallocs        uint64               `json:"mallocs"`
	HardwareErrors uint64               `json:"hardware_errors"`
	PagesRetired   uint64               `json:"pages_retired"`
	Violations     []campaign.Violation `json:"violations"`
}

// tallyJob fills r from a terminal job record.
func tallyJob(job fleet.Job, r *opRecord) {
	r.retries = job.Attempts - 1
	if job.State != fleet.StateDone {
		r.failed = true
		r.out = fmt.Appendf(r.out, "%s: %s", job.State, job.Error)
		return
	}
	r.out = job.Result
	r.simNS = job.FinishedNS - job.StartedNS
	var p jobPayload
	if err := json.Unmarshal(job.Result, &p); err != nil {
		r.failed = true
		return
	}
	t := &r.t
	t[cCycles] += p.Cycles
	if p.Kind == fleet.KindApp {
		t[cInstrs] += p.Instrs
		t[cCPICycles] += p.Cycles
		t[cMallocs] += p.Mallocs
	}
	t[cHWErrors] += p.HardwareErrors
	t[cPagesRetired] += p.PagesRetired
	t[cViolations] += uint64(len(p.Violations))
	env := ""
	if job.Spec.FaultRate > 0 {
		env = envFlags(campaign.Env{FaultRate: job.Spec.FaultRate, Storm: job.Spec.Storm, Retire: job.Spec.Retire})
	}
	for _, v := range p.Violations {
		r.violations = append(r.violations, violation{seed: v.Seed, config: v.Config,
			kind: string(v.Kind), detail: v.Detail, env: env})
	}
}

func (s *fleetSession) replay(seed uint64, i int) ([]byte, error) {
	return fleet.Execute(context.Background(), jobSpec(seed, i), nil)
}

// openResult is what the open-loop phase measured.
type openResult struct {
	sent, failed int
	rejected     int
	latencyMS    []float64 // per done job, from its due time to finish
	queueMS      []float64 // per done job, from submission to start
	serviceMS    []float64 // per done job, from start to finish
	late         []time.Duration
	busyFrac     float64
	jobs         []jobSpan
}

// openLoop offers openRate jobs per second for d, then drains the fleet and
// reads every admitted job's record. Each job's latency runs from the time
// it was due to be sent, so generator stalls count against the fleet.
func (s *fleetSession) openLoop(seed uint64, first int, d time.Duration, tr *spanLog) (*openResult, error) {
	type sent struct {
		due time.Time
		id  uint64
		err error
	}
	var sends []sent
	start := time.Now()
	late := openLoop(wallClock{}, openRate, d, func(k int, due time.Time) {
		t0 := time.Now()
		job, err := s.f.Submit(jobSpec(campaign.SubSeed(seed, first+k), first+k))
		tr.add("fleet.Submit", "open", first+k, t0, time.Since(t0))
		sends = append(sends, sent{due: due, id: job.ID, err: err})
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.f.Drain(ctx); err != nil {
		return nil, err
	}
	res := &openResult{sent: len(sends), late: late}
	var busy int64
	end := start.UnixNano()
	for _, sd := range sends {
		if sd.err != nil {
			res.failed++
			res.rejected++
			continue
		}
		job, _ := s.f.Get(sd.id)
		if job.State != fleet.StateDone {
			res.failed++
			continue
		}
		res.latencyMS = append(res.latencyMS, float64(job.FinishedNS-sd.due.UnixNano())/1e6)
		res.queueMS = append(res.queueMS, float64(job.StartedNS-job.SubmittedNS)/1e6)
		res.serviceMS = append(res.serviceMS, float64(job.FinishedNS-job.StartedNS)/1e6)
		busy += job.FinishedNS - job.StartedNS
		end = max(end, job.FinishedNS)
		res.jobs = append(res.jobs, jobSpan{id: job.ID, submitted: job.SubmittedNS,
			started: job.StartedNS, finished: job.FinishedNS})
	}
	if span := end - start.UnixNano(); span > 0 {
		res.busyFrac = float64(busy) / float64(int64(runtime.NumCPU())*span)
	}
	return res, nil
}
