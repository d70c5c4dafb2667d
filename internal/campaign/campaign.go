package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"safemem/internal/obsrv/flight"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// Config parameterises a campaign run.
type Config struct {
	// Seeds is the number of scenarios to generate and run.
	Seeds int
	// BaseSeed is mixed with each scenario index to derive its sub-seed, so
	// scenario i means the same test case at any shard count.
	BaseSeed uint64
	// Shards is the number of worker goroutines (default 1). Sharding
	// changes wall-clock time only: every scenario runs on its own machine
	// from its own sub-seed, results are collected by index and aggregated
	// sequentially, so the summary is byte-identical at any shard count.
	Shards int
	// Tools lists the configurations to judge (default ml, mc, both). The
	// uninstrumented baseline always runs for the overhead denominator,
	// whether or not CfgNone is listed.
	Tools []ToolConfig
	// Budget, when non-zero, stops workers from *starting* new scenarios
	// once the wall-clock budget is spent (in-flight scenarios finish).
	// Truncation is recorded in the summary's scenarios_run; byte-identical
	// summaries are only guaranteed for unbudgeted runs.
	Budget time.Duration
	// Shrink enables minimisation of violating scenarios.
	Shrink bool
	// Sabotage silently disables corruption detection while still judging
	// against the declared configuration — a self-test that must produce
	// violations (and working repro commands) on any scenario with a
	// corruption-class plant.
	Sabotage bool
	// FaultRate, Storm and Retire run every scenario "on flaky DIMMs": a
	// seed-deterministic background DRAM fault process at FaultRate events
	// per million cycles (with storm episodes when Storm is set), the kernel
	// scrub daemon, and — with Retire — page retirement instead of panics on
	// uncorrectable errors. See Env.
	FaultRate float64
	Storm     bool
	Retire    bool
	// SampleRate is the sampling rate for CfgSample runs (≤ 0 uses
	// sampletool.DefaultRate). Other configurations ignore it.
	SampleRate int
	// Registry, when non-nil, receives the campaign's aggregate telemetry
	// (true/false positive counters, detection-latency and overhead
	// histograms) plus live progress while the campaign runs: per-shard
	// shard<i>_scenarios_done gauges, live_* verdict counters and a
	// scenarios_per_sec gauge, all updated as workers finish scenarios so a
	// /metrics scrape shows progress mid-run. Live metrics never feed the
	// summary. Nil creates a private registry.
	Registry *telemetry.Registry
	// Recorder receives flight-recorder events (campaign/shard start and
	// finish, per-scenario verdicts, violations). Nil uses flight.Default.
	Recorder *flight.Recorder
	// FlightDump, when non-empty, is a JSONL path the flight recorder's
	// recent history is dumped to whenever the campaign ends in violations
	// or an execution error — the black box recovered next to the shrunk
	// repro.
	FlightDump string
	// FlightDumpN caps how many trailing events a dump writes (default 256).
	FlightDumpN int
}

// defaultFlightDumpN is the dump size when Config.FlightDumpN is zero.
const defaultFlightDumpN = 256

// maxShrinks bounds shrinking work per campaign: violations are rare (a
// green campaign has none), but a systemic breakage would otherwise shrink
// hundreds of scenarios at one re-execution per removed op.
const maxShrinks = 10

// Dist summarises a sample distribution. All fields derive from the sorted
// sample set, so equal inputs give byte-equal JSON.
type Dist struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

func distOf(samples []float64) *Dist {
	if len(samples) == 0 {
		return nil
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	q := func(p int) float64 { return s[(len(s)-1)*p/100] }
	return &Dist{
		Count: len(s), Min: s[0], Max: s[len(s)-1],
		Mean: sum / float64(len(s)), P50: q(50), P95: q(95),
	}
}

// ConfigSummary aggregates one configuration's results across the campaign.
type ConfigSummary struct {
	Config         string `json:"config"`
	Scenarios      int    `json:"scenarios"`
	TruePositives  int    `json:"true_positives"`
	FalsePositives int    `json:"false_positives"`
	Missed         int    `json:"missed"`
	ExpectedMisses int    `json:"expected_misses"`
	SampledMisses  int    `json:"sampled_misses,omitempty"`
	TotalCycles    uint64 `json:"total_cycles"`
	Latency        *Dist  `json:"latency_cycles,omitempty"`
	Overhead       *Dist  `json:"overhead,omitempty"`
	HardwareErrors uint64 `json:"hardware_errors"`
	// Hardware-resilience evidence, summed across the configuration's runs.
	CorrectedErrors uint64 `json:"corrected_errors,omitempty"`
	FaultEvents     uint64 `json:"fault_events,omitempty"`
	PagesRetired    uint64 `json:"pages_retired,omitempty"`
	WatchesMigrated uint64 `json:"watches_migrated,omitempty"`
	DataLossEvents  uint64 `json:"data_loss_events,omitempty"`
}

// Summary is the campaign's result. It deliberately contains nothing about
// the execution environment — no shard count, budget or wall-clock times —
// so summaries compare byte-for-byte across machines and parallelism.
type Summary struct {
	Version      string          `json:"version"`
	BaseSeed     uint64          `json:"base_seed"`
	Seeds        int             `json:"seeds"`
	ScenariosRun int             `json:"scenarios_run"`
	Sabotage     bool            `json:"sabotage,omitempty"`
	FaultRate    float64         `json:"fault_rate,omitempty"`
	Storm        bool            `json:"storm,omitempty"`
	Retire       bool            `json:"retire,omitempty"`
	SampleRate   int             `json:"sample_rate,omitempty"`
	Configs      []ConfigSummary `json:"configs"`
	Violations   []Violation     `json:"violations"`
}

// JSON renders the summary in its canonical indented form.
func (s *Summary) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// ReproCommand builds the one-line command that replays a single violating
// scenario under the same environment.
func ReproCommand(v Violation, scenario *Scenario, env Env) string {
	cmd := fmt.Sprintf("safemem-fuzz -seed=%d -tool=%s", v.Seed, v.Config)
	if v.Config == CfgSample.String() && env.SampleRate > 0 {
		cmd += fmt.Sprintf(" -sample-rate=%d", env.SampleRate)
	}
	if env.Sabotage {
		cmd += " -sabotage"
	}
	if env.FaultRate > 0 {
		cmd += fmt.Sprintf(" -fault-rate=%g", env.FaultRate)
	}
	if env.Storm {
		cmd += " -storm"
	}
	if env.Retire {
		cmd += " -retire"
	}
	return fmt.Sprintf("%s -scenario='%s'", cmd, scenario.Encode())
}

// outcome is one scenario's full result set, collected by index.
type outcome struct {
	scenario *Scenario
	baseline *ExecResult
	runs     []*ExecResult // parallel to the judged config list
	verdicts []*Verdict
	err      error
}

// Run executes the campaign and returns its aggregate summary. Scenario i
// is generated from subSeed(BaseSeed, i) and runs on a fresh machine per
// configuration; workers claim indices atomically and post results into an
// index-ordered slice, and all aggregation happens sequentially afterwards,
// which is what makes the summary independent of Shards and GOMAXPROCS.
func Run(cfg Config) (*Summary, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	tools := cfg.Tools
	if len(tools) == 0 {
		tools = []ToolConfig{CfgML, CfgMC, CfgBoth}
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = flight.Default
	}

	env := Env{Sabotage: cfg.Sabotage, FaultRate: cfg.FaultRate, Storm: cfg.Storm, Retire: cfg.Retire, SampleRate: cfg.SampleRate}

	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = time.Now().Add(cfg.Budget)
	}

	prog := newProgress(cfg.Registry, cfg.Shards)
	rec.Emit(flight.KindCampaignStart, "campaign", 0, "",
		flight.F("seeds", uint64(cfg.Seeds)),
		flight.F("base_seed", cfg.BaseSeed),
		flight.F("shards", uint64(cfg.Shards)))

	results := make([]*outcome, cfg.Seeds)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Shards; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rec.Emit(flight.KindShardStart, "campaign", 0, "", flight.F("shard", uint64(shard)))
			done := uint64(0)
			defer func() {
				rec.Emit(flight.KindShardFinish, "campaign", 0, "",
					flight.F("shard", uint64(shard)), flight.F("scenarios", done))
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Seeds {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				seed := subSeed(cfg.BaseSeed, i)
				o := runScenario(seed, tools, env)
				results[i] = o
				done++
				prog.scenarioDone(shard, done)
				for ti, v := range o.verdicts {
					prog.verdict(v)
					RecordVerdict(rec, seed, tools[ti], v)
				}
			}
		}(w)
	}
	wg.Wait()

	sum, err := aggregate(cfg, env, tools, results)
	switch {
	case err != nil:
		rec.Emit(flight.KindCampaignFinish, "campaign", 0, "error: "+err.Error())
	default:
		rec.Emit(flight.KindCampaignFinish, "campaign", 0, "",
			flight.F("scenarios_run", uint64(sum.ScenariosRun)),
			flight.F("violations", uint64(len(sum.Violations))))
	}
	if derr := DumpFlight(rec, cfg.FlightDump, cfg.FlightDumpN, err != nil || len(sum.Violations) > 0); derr != nil {
		rec.Emit(flight.KindCampaignFinish, "campaign", 0, "flight dump failed: "+derr.Error())
	}
	return sum, err
}

// RecordVerdict emits v, the verdict of scenario seed under cfg, to rec: one
// verdict event, then one event per violation. Run records every verdict
// this way, and so does a single-scenario replay.
func RecordVerdict(rec *flight.Recorder, seed uint64, cfg ToolConfig, v *Verdict) {
	rec.Emit(flight.KindVerdict, "campaign", 0, cfg.String(),
		flight.F("seed", seed),
		flight.F("true_positives", uint64(v.TruePositives)),
		flight.F("false_positives", uint64(v.FalsePositives)),
		flight.F("missed", uint64(v.Missed)))
	for _, vio := range v.Violations {
		rec.Emit(flight.KindViolation, "campaign", 0,
			fmt.Sprintf("%s under %s: %s", vio.Kind, vio.Config, vio.Detail),
			flight.F("seed", seed))
	}
}

// DumpFlight is the black box: a run that failed (ended in an error or in
// violations) dumps the last n events of rec's history (n ≤ 0: 256) to
// path, next to the shrunk repro, so the post-mortem has the event stream
// that led up to the failure. An empty path disables it. Run and a
// single-scenario replay share this rule.
func DumpFlight(rec *flight.Recorder, path string, n int, failed bool) error {
	if path == "" || !failed {
		return nil
	}
	if n <= 0 {
		n = defaultFlightDumpN
	}
	return rec.DumpFile(path, n)
}

// progress publishes live campaign progress into a telemetry registry:
// owned (atomic) metrics only, so a concurrent /metrics scrape is always
// fresh and race-free. A nil registry disables it. Live metrics carry a
// live_ prefix (or shard<i>_) so they never collide with the aggregate
// counters written once at the end of the run.
type progress struct {
	start     time.Time
	shardDone []*telemetry.Gauge
	perSec    *telemetry.Gauge
	total     atomic.Uint64
	scenarios *telemetry.Counter
	tp        *telemetry.Counter
	fp        *telemetry.Counter
	missed    *telemetry.Counter
	vio       *telemetry.Counter
}

func newProgress(reg *telemetry.Registry, shards int) *progress {
	if reg == nil {
		return nil
	}
	p := &progress{
		start:     time.Now(),
		perSec:    reg.Gauge("campaign", "scenarios_per_sec"),
		scenarios: reg.Counter("campaign", "live_scenarios_done"),
		tp:        reg.Counter("campaign", "live_true_positives"),
		fp:        reg.Counter("campaign", "live_false_positives"),
		missed:    reg.Counter("campaign", "live_missed"),
		vio:       reg.Counter("campaign", "live_violations"),
	}
	for i := 0; i < shards; i++ {
		p.shardDone = append(p.shardDone, reg.Gauge("campaign", fmt.Sprintf("shard%d_scenarios_done", i)))
	}
	return p
}

func (p *progress) scenarioDone(shard int, done uint64) {
	if p == nil {
		return
	}
	p.shardDone[shard].Set(float64(done))
	p.scenarios.Inc()
	total := p.total.Add(1)
	if elapsed := time.Since(p.start).Seconds(); elapsed > 0 {
		p.perSec.Set(float64(total) / elapsed)
	}
}

func (p *progress) verdict(v *Verdict) {
	if p == nil {
		return
	}
	p.tp.Add(uint64(v.TruePositives))
	p.fp.Add(uint64(v.FalsePositives))
	p.missed.Add(uint64(v.Missed))
	p.vio.Add(uint64(len(v.Violations)))
}

// runScenario generates and executes one scenario under the baseline and
// every judged configuration.
func runScenario(seed uint64, tools []ToolConfig, env Env) *outcome {
	o := &outcome{scenario: Generate(seed)}
	base, err := ExecuteEnv(o.scenario, CfgNone, env)
	if err != nil {
		o.err = err
		return o
	}
	o.baseline = base
	for _, tc := range tools {
		res := base
		if tc != CfgNone {
			if res, err = ExecuteEnv(o.scenario, tc, env); err != nil {
				o.err = err
				return o
			}
		}
		o.runs = append(o.runs, res)
		o.verdicts = append(o.verdicts, Judge(o.scenario, tc, res))
	}
	return o
}

// aggregate folds the index-ordered outcomes into the summary and the
// telemetry registry.
func aggregate(cfg Config, env Env, tools []ToolConfig, results []*outcome) (*Summary, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry("campaign", telemetry.Config{})
	}
	latencyHist := reg.Histogram("campaign", "detection_latency_cycles", telemetry.LatencyBuckets)
	overheadHist := reg.Histogram("campaign", "overhead", telemetry.OverheadBuckets)
	tpCtr := reg.Counter("campaign", "true_positives")
	fpCtr := reg.Counter("campaign", "false_positives")
	missCtr := reg.Counter("campaign", "missed")
	vioCtr := reg.Counter("campaign", "violations")

	sum := &Summary{
		Version:    scenarioVersion,
		BaseSeed:   cfg.BaseSeed,
		Seeds:      cfg.Seeds,
		Sabotage:   cfg.Sabotage,
		FaultRate:  cfg.FaultRate,
		Storm:      cfg.Storm,
		Retire:     cfg.Retire,
		SampleRate: cfg.SampleRate,
		Violations: []Violation{},
	}
	per := make([]ConfigSummary, len(tools))
	latencies := make([][]float64, len(tools))
	overheads := make([][]float64, len(tools))
	for ti, tc := range tools {
		per[ti].Config = tc.String()
	}

	shrinks := 0
	for _, o := range results {
		if o == nil {
			continue // budget-truncated
		}
		if o.err != nil {
			return nil, o.err
		}
		sum.ScenariosRun++
		for ti, tc := range tools {
			cs := &per[ti]
			verdict, res := o.verdicts[ti], o.runs[ti]
			cs.Scenarios++
			cs.TruePositives += verdict.TruePositives
			cs.FalsePositives += verdict.FalsePositives
			cs.Missed += verdict.Missed
			cs.ExpectedMisses += verdict.ExpectedMisses
			cs.SampledMisses += verdict.SampledMisses
			cs.TotalCycles += uint64(res.Cycles)
			cs.HardwareErrors += res.Stats.HardwareErrors
			cs.CorrectedErrors += res.Corrected
			cs.FaultEvents += res.FaultEvents
			cs.PagesRetired += res.Resilience.PagesRetired
			cs.WatchesMigrated += res.Resilience.WatchesMigrated
			cs.DataLossEvents += res.Resilience.DataLossEvents
			for _, l := range verdict.Latencies {
				latencies[ti] = append(latencies[ti], float64(l))
				latencyHist.ObserveCycles(l)
			}
			if tc != CfgNone && o.baseline.Cycles > 0 {
				ov := (float64(res.Cycles) - float64(o.baseline.Cycles)) / float64(o.baseline.Cycles)
				overheads[ti] = append(overheads[ti], ov)
				overheadHist.Observe(ov)
			}
			tpCtr.Add(uint64(verdict.TruePositives))
			fpCtr.Add(uint64(verdict.FalsePositives))
			missCtr.Add(uint64(verdict.Missed))
			for _, v := range verdict.Violations {
				vioCtr.Inc()
				v.Repro = ReproCommand(v, o.scenario, env)
				if cfg.Shrink && shrinks < maxShrinks {
					shrinks++
					small := Shrink(o.scenario, tc, env, v)
					v.Shrunk = ReproCommand(v, small, env)
				}
				sum.Violations = append(sum.Violations, v)
			}
		}
	}
	for ti := range tools {
		per[ti].Latency = distOf(latencies[ti])
		per[ti].Overhead = distOf(overheads[ti])
	}
	sum.Configs = per
	return sum, nil
}

// Cycles2Micros converts simulated cycles to microseconds for display.
func Cycles2Micros(c simtime.Cycles) float64 { return c.Microseconds() }
