package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// detSpecs is the worker-count-determinism job mix: every scenario tool
// config, fault-model knobs, sampling, and an app job.
func detSpecs() []JobSpec {
	specs := []JobSpec{
		{Seed: 11, Tool: "none"},
		{Seed: 12, Tool: "ml"},
		{Seed: 13, Tool: "mc"},
		{Seed: 14, Tool: "both"},
		{Seed: 15, Tool: "sample", SampleRate: 8},
		{Seed: 16, Tool: "both", FaultRate: 1e-5},
		{Seed: 17, Tool: "both", FaultRate: 1e-5, Retire: true},
		{Kind: KindApp, App: "gzip", Tool: "safemem", Seed: 18, Scale: 1},
		{Kind: KindApp, App: "gzip", Tool: "sample", Seed: 19, Scale: 1, SampleRate: 10},
		flakyAppSpec(),
	}
	for s := uint64(20); s < 26; s++ {
		specs = append(specs, JobSpec{Seed: s, Tool: "both"})
	}
	return specs
}

// flakyAppSpec is an app job on flaky DIMMs: storms and page retirement.
func flakyAppSpec() JobSpec {
	return JobSpec{Kind: KindApp, App: "gzip", Tool: "safemem", Seed: 27, Scale: 1,
		FaultRate: 40, Storm: true, Retire: true}
}

// TestAppJobOnFlakyDIMMs pins that an app job's fault knobs reach the
// run: the same spec on perfect DIMMs takes a different number of cycles.
func TestAppJobOnFlakyDIMMs(t *testing.T) {
	cycles := func(spec JobSpec) uint64 {
		t.Helper()
		raw, err := Execute(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		var res AppResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Crash != "" {
			t.Fatalf("app job crashed: %s", res.Crash)
		}
		return res.Cycles
	}
	perfect := flakyAppSpec()
	perfect.FaultRate, perfect.Storm, perfect.Retire = 0, false, false
	if flaky, clean := cycles(flakyAppSpec()), cycles(perfect); flaky == clean {
		t.Fatalf("fault knobs had no effect: %d cycles on flaky and perfect DIMMs", flaky)
	}
}

// runBatch executes specs on a fresh fleet with the given worker count and
// returns each job's terminal state and result bytes, indexed by spec.
func runBatch(t *testing.T, workers int, chaos *Chaos, specs []JobSpec) ([]State, [][]byte) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.QueueDepth = len(specs) + 1
	cfg.Chaos = chaos
	f := Start(cfg)
	defer f.Close() //nolint:errcheck

	ids := make([]uint64, len(specs))
	for i, s := range specs {
		j, err := f.Submit(s)
		if err != nil {
			t.Fatalf("workers=%d: Submit(%d): %v", workers, i, err)
		}
		ids[i] = j.ID
	}
	states := make([]State, len(specs))
	results := make([][]byte, len(specs))
	for i, id := range ids {
		j := waitTerminal(t, f, id)
		states[i] = j.State
		results[i] = []byte(j.Result)
	}
	return states, results
}

// TestJobDeterminismAcrossWorkerCounts pins the serving layer's core
// promise: a job's result is a function of its spec alone. The same batch
// at 1, 4 and 16 workers must produce byte-identical result payloads.
func TestJobDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := detSpecs()
	baseStates, baseResults := runBatch(t, 1, nil, specs)
	for i, s := range baseStates {
		if s != StateDone {
			t.Fatalf("spec %d: state %q at workers=1, want done", i, s)
		}
	}
	for _, workers := range []int{4, 16} {
		states, results := runBatch(t, workers, nil, specs)
		for i := range specs {
			if states[i] != baseStates[i] {
				t.Errorf("spec %d: state %q at workers=%d, %q at workers=1",
					i, states[i], workers, baseStates[i])
			}
			if !bytes.Equal(results[i], baseResults[i]) {
				t.Errorf("spec %d: result differs at workers=%d vs 1:\n  %s\n  %s",
					i, workers, results[i], baseResults[i])
			}
		}
	}
}

// TestChaosDeterminismAcrossWorkerCounts extends the promise to chaos
// campaigns: injected fates key on the spec hash, so which jobs crash,
// which retry, and every surviving result must match at any worker count.
func TestChaosDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := detSpecs()
	chaos := func() *Chaos { return &Chaos{Seed: 9, PanicEvery: 4, FailEvery: 5} }
	baseStates, baseResults := runBatch(t, 1, chaos(), specs)
	sawCrash := false
	for _, s := range baseStates {
		if s == StateCrashed {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("chaos drew no crashes — the cross-worker comparison would be vacuous")
	}
	for _, workers := range []int{4, 16} {
		states, results := runBatch(t, workers, chaos(), specs)
		for i := range specs {
			if states[i] != baseStates[i] {
				t.Errorf("spec %d: chaos fate %q at workers=%d, %q at workers=1",
					i, states[i], workers, baseStates[i])
			}
			if !bytes.Equal(results[i], baseResults[i]) {
				t.Errorf("spec %d: result differs under chaos at workers=%d", i, workers)
			}
		}
	}
}

// TestResultBytesStableAcrossRepeatedRuns pins marshalling stability: the
// same spec run twice on the same fleet yields identical bytes (no map
// iteration, timestamps or pointers leak into Result).
func TestResultBytesStableAcrossRepeatedRuns(t *testing.T) {
	cfg := testConfig()
	f := Start(cfg)
	defer f.Close() //nolint:errcheck

	spec := JobSpec{Seed: 77, Tool: "both", FaultRate: 1e-5, Retire: true}
	var first []byte
	for round := 0; round < 3; round++ {
		j0, err := f.Submit(spec)
		if err != nil {
			t.Fatalf("Submit round %d: %v", round, err)
		}
		j := waitTerminal(t, f, j0.ID)
		if j.State != StateDone {
			t.Fatalf("round %d: state %q", round, j.State)
		}
		if round == 0 {
			first = []byte(j.Result)
			continue
		}
		if !bytes.Equal([]byte(j.Result), first) {
			t.Fatalf("round %d result differs:\n%s\n%s", round, j.Result, first)
		}
	}
	if len(first) == 0 {
		t.Fatal("empty result payload")
	}
	// And the payload is versioned by kind, so clients can dispatch.
	if !bytes.Contains(first, []byte(fmt.Sprintf("%q: %q", "kind", KindScenario))) &&
		!bytes.Contains(first, []byte(`"kind":"scenario"`)) {
		t.Errorf("result missing kind marker: %s", first)
	}
}
