package fleet

import (
	"encoding/json"
	"fmt"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/campaign"
)

// JobKind selects what a detection job runs.
const (
	// KindScenario runs one campaign scenario (generated from Seed) under
	// one tool configuration and returns the oracle's verdict — the unit
	// the randomized campaigns are built from.
	KindScenario = "scenario"
	// KindApp runs one evaluation application under one monitoring tool —
	// the safemem-run experience as a service.
	KindApp = "app"
)

// JobSpec is a detection job as submitted by a client: application or
// scenario seed, tool, and the fault/sampling knobs. The spec alone
// determines the result — execution is seed-deterministic — which is what
// lets the fleet promise byte-identical results at any worker count.
type JobSpec struct {
	// Kind is KindScenario (the default when empty) or KindApp.
	Kind string `json:"kind,omitempty"`
	// Tenant attributes the job for per-tenant quota enforcement. Empty is
	// the anonymous tenant (one shared bucket).
	Tenant string `json:"tenant,omitempty"`
	// Seed drives scenario generation (KindScenario) or the workload
	// generator (KindApp).
	Seed uint64 `json:"seed"`
	// Tool names the monitoring configuration. Scenario jobs use the
	// campaign vocabulary (none, ml, mc, both, sample); app jobs use the
	// safemem-run vocabulary (none, safemem, safemem-ml, safemem-mc,
	// sample, purify, pageprot, mmp). Empty means "both" / "safemem".
	Tool string `json:"tool,omitempty"`
	// SampleRate is the sampling rate N for sample-tool jobs (≤0: default).
	SampleRate int `json:"sample_rate,omitempty"`
	// FaultRate, Storm and Retire run the job on flaky DIMMs (the same
	// knobs as safemem-fuzz).
	FaultRate float64 `json:"fault_rate,omitempty"`
	Storm     bool    `json:"storm,omitempty"`
	Retire    bool    `json:"retire,omitempty"`
	// App and its workload shape (KindApp only).
	App   string `json:"app,omitempty"`
	Scale int    `json:"scale,omitempty"`
	Buggy bool   `json:"buggy,omitempty"`
}

// Validate rejects specs the executor could not run.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case "", KindScenario:
		tool := s.Tool
		if tool == "" {
			tool = "both"
		}
		if _, err := campaign.ParseToolConfig(tool); err != nil {
			return fmt.Errorf("fleet: scenario job: %w", err)
		}
	case KindApp:
		if s.App == "" {
			return fmt.Errorf("fleet: app job needs an app name")
		}
		if _, ok := apps.Get(s.App); !ok {
			return fmt.Errorf("fleet: unknown app %q", s.App)
		}
		tool := s.Tool
		if tool == "" {
			tool = "safemem"
		}
		if _, err := bench.ParseTool(tool); err != nil {
			return fmt.Errorf("fleet: app job: %w", err)
		}
	default:
		return fmt.Errorf("fleet: unknown job kind %q (want %s or %s)", s.Kind, KindScenario, KindApp)
	}
	if s.FaultRate < 0 {
		return fmt.Errorf("fleet: negative fault rate")
	}
	return nil
}

// Hash is a stable fingerprint of the spec (FNV-1a over its canonical
// JSON). Chaos decisions key off it, so whether a given job panics or runs
// slow depends on the job alone — never on worker count or arrival order —
// keeping chaos campaigns as deterministic as clean ones.
func (s *JobSpec) Hash() uint64 {
	b, _ := json.Marshal(s)
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// State is a job's position in the fleet's lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: on a worker, inside its deadline.
	StateRunning State = "running"
	// StateRetrying: last attempt failed transiently; waiting out backoff.
	StateRetrying State = "retrying"
	// StateDone: terminal success — Result holds the verdict.
	StateDone State = "done"
	// StateCrashed: terminal — a worker panic was isolated to this job and
	// the in-flight machine was discarded (never repooled).
	StateCrashed State = "crashed"
	// StateFailed: terminal — retry budget exhausted or permanent error.
	StateFailed State = "failed"
	// StateTimedOut: terminal — deadline exceeded (cancelled between ops,
	// or abandoned by the watchdog if it ignored cancellation).
	StateTimedOut State = "timed-out"
	// StateCanceled: terminal — killed by the drain deadline before it
	// could finish.
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCrashed, StateFailed, StateTimedOut, StateCanceled:
		return true
	}
	return false
}

// Job is one admitted job's full record. Result carries only
// deterministic, simulation-derived bytes; attempts and wall-clock stamps
// are host-side metadata and deliberately live outside it.
type Job struct {
	ID       uint64          `json:"id"`
	Spec     JobSpec         `json:"spec"`
	State    State           `json:"state"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`

	SubmittedNS int64 `json:"submitted_ns"`
	StartedNS   int64 `json:"started_ns,omitempty"`
	FinishedNS  int64 `json:"finished_ns,omitempty"`
}

// ScenarioResult is a scenario job's deterministic payload: the oracle's
// verdict plus the run's headline counters. Field order is fixed, so equal
// runs marshal to equal bytes.
type ScenarioResult struct {
	Kind           string               `json:"kind"`
	Seed           uint64               `json:"seed"`
	Tool           string               `json:"tool"`
	Ops            int                  `json:"ops"`
	Cycles         uint64               `json:"cycles"`
	TruePositives  int                  `json:"true_positives"`
	FalsePositives int                  `json:"false_positives"`
	Missed         int                  `json:"missed"`
	ExpectedMisses int                  `json:"expected_misses"`
	SampledMisses  int                  `json:"sampled_misses,omitempty"`
	Violations     []campaign.Violation `json:"violations,omitempty"`
	Reports        []string             `json:"reports,omitempty"`
	Crash          string               `json:"crash,omitempty"`
	HardwareErrors uint64               `json:"hardware_errors,omitempty"`
	PagesRetired   uint64               `json:"pages_retired,omitempty"`
}

// AppResult is an app job's deterministic payload.
type AppResult struct {
	Kind    string   `json:"kind"`
	App     string   `json:"app"`
	Tool    string   `json:"tool"`
	Seed    uint64   `json:"seed"`
	Scale   int      `json:"scale,omitempty"`
	Buggy   bool     `json:"buggy,omitempty"`
	Cycles  uint64   `json:"cycles"`
	Instrs  uint64   `json:"instrs"`
	Mallocs uint64   `json:"mallocs"`
	Frees   uint64   `json:"frees"`
	Reports []string `json:"reports,omitempty"`
	Crash   string   `json:"crash,omitempty"`
}
