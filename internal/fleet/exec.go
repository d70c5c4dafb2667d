package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/campaign"
)

// ErrTransient marks an execution failure worth retrying: the job itself
// is sound but this attempt hit weather — chaos-injected faults, or a
// hardware-verdict storm on an environment-shared resource. Executors wrap
// transient failures with it (errors.Is unwrapping applies); everything
// else is permanent and fails the job without burning retries.
var ErrTransient = errors.New("transient failure")

// Executor runs one job attempt. opHook, when non-nil, must be threaded
// into the run's per-op instrumentation (chaos injection); executors for
// job kinds without per-op structure call it once before the run instead.
// The returned bytes are the job's canonical result — they must depend
// only on the spec, never on the attempt, worker, or host.
type Executor func(ctx context.Context, spec JobSpec, opHook func(op int) error) (json.RawMessage, error)

// Execute is the default executor behind a serving fleet.
func Execute(ctx context.Context, spec JobSpec, opHook func(op int) error) (json.RawMessage, error) {
	switch spec.Kind {
	case "", KindScenario:
		return runScenarioJob(ctx, spec, opHook)
	case KindApp:
		return runAppJob(ctx, spec, opHook)
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q", spec.Kind)
	}
}

// ctxFailure reports whether err is the run being cancelled (deadline or
// drain), which must surface as a scheduling outcome, not a verdict.
func ctxFailure(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runScenarioJob executes one campaign scenario under one configuration
// and returns the oracle's verdict. A deterministic abnormal termination
// (kernel panic, segfault) is part of the result — the client asked "what
// does this scenario do" and the answer is "it crashes the program" — but
// cancellation and transient chaos failures propagate as errors for the
// scheduler to classify.
func runScenarioJob(ctx context.Context, spec JobSpec, opHook func(op int) error) (json.RawMessage, error) {
	toolName := spec.Tool
	if toolName == "" {
		toolName = "both"
	}
	tc, err := campaign.ParseToolConfig(toolName)
	if err != nil {
		return nil, err
	}
	s := campaign.Generate(spec.Seed)
	env := campaign.Env{
		FaultRate:  spec.FaultRate,
		Storm:      spec.Storm,
		Retire:     spec.Retire,
		SampleRate: spec.SampleRate,
		Ctx:        ctx,
		Hook:       opHook,
	}
	res, err := campaign.ExecuteEnv(s, tc, env)
	if err != nil {
		return nil, err
	}
	if res.Err != nil && (ctxFailure(res.Err) || errors.Is(res.Err, ErrTransient)) {
		return nil, res.Err
	}
	v := campaign.Judge(s, tc, res)
	out := &ScenarioResult{
		Kind:           KindScenario,
		Seed:           spec.Seed,
		Tool:           tc.String(),
		Ops:            len(s.Ops),
		Cycles:         uint64(res.Cycles),
		TruePositives:  v.TruePositives,
		FalsePositives: v.FalsePositives,
		Missed:         v.Missed,
		ExpectedMisses: v.ExpectedMisses,
		SampledMisses:  v.SampledMisses,
		Violations:     v.Violations,
		HardwareErrors: res.Stats.HardwareErrors,
		PagesRetired:   res.Resilience.PagesRetired,
	}
	for _, r := range res.Reports {
		out.Reports = append(out.Reports, r.String())
	}
	if res.Err != nil {
		out.Crash = res.Err.Error()
	}
	return json.Marshal(out)
}

// runAppJob executes one evaluation application under one tool. Apps run
// as a single opaque simulated program, so the op hook fires once up front
// (chaos still reaches the job) and mid-run cancellation is the
// scheduler's watchdog's problem.
func runAppJob(ctx context.Context, spec JobSpec, opHook func(op int) error) (json.RawMessage, error) {
	toolName := spec.Tool
	if toolName == "" {
		toolName = "safemem"
	}
	tool, err := bench.ParseTool(toolName)
	if err != nil {
		return nil, err
	}
	if opHook != nil {
		if herr := opHook(0); herr != nil {
			return nil, herr
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	cfg := apps.Config{Seed: int64(spec.Seed), Scale: spec.Scale, Buggy: spec.Buggy}
	res, err := bench.RunSpec(bench.Spec{
		App: spec.App, Tool: tool, Cfg: cfg,
		SampleRate: spec.SampleRate,
		FaultRate:  spec.FaultRate, Storm: spec.Storm, Retire: spec.Retire,
	})
	if err != nil {
		return nil, err
	}
	out := &AppResult{
		Kind:    KindApp,
		App:     spec.App,
		Tool:    tool.String(),
		Seed:    spec.Seed,
		Scale:   spec.Scale,
		Buggy:   spec.Buggy,
		Cycles:  uint64(res.Cycles),
		Instrs:  res.Instrs,
		Mallocs: res.Heap.Mallocs,
		Frees:   res.Heap.Frees,
	}
	for _, r := range res.SafeMem {
		out.Reports = append(out.Reports, r.String())
	}
	for _, r := range res.Purify {
		out.Reports = append(out.Reports, r.String())
	}
	for _, r := range res.PageProt {
		out.Reports = append(out.Reports, r.String())
	}
	for _, r := range res.MMP {
		out.Reports = append(out.Reports, r.String())
	}
	if res.Err != nil {
		out.Crash = res.Err.Error()
	}
	return json.Marshal(out)
}
