package campaign

import (
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on. Under
// race, sync.Pool drops a share of the machines put into it, so the pool
// rebuilds machines and allocation counts mean nothing there.
var raceEnabled = false

// steadyStateAllocs is the measured host allocation count of one fixed
// clean scenario run under every configuration on the recycled path. Most
// of what remains is per-run output: the result records, their report
// copies and bug-report strings, the sampler's site map, and the
// telemetry sources each run registers.
const steadyStateAllocs = 58

// stormSteadyStateAllocs is the same count for the scenario on flaky DIMMs
// (fault rate 40, storms, page retirement). On top of the clean run's
// output it pays, per configuration, the kernel's scrub daemon, resilience
// options and line-health records, the fault process's clock timer, and
// the flight-recorder events and degradation records of the faults.
const stormSteadyStateAllocs = 105

// allocAttempts bounds how often TestScenarioSteadyStateAllocs measures
// before it gives up on a pool that keeps missing.
const allocAttempts = 5

// TestScenarioSteadyStateAllocs pins the garbage-free scenario path: once
// a pooled machine and the per-run storage its previous runs left behind
// (the heap allocator, the SafeMem tool, the injector, the fault process,
// the slot table) are warm, a scenario under every configuration allocates
// no more than its ceiling. A measurement during which a GC drained the
// machine pool counts a rebuild, so it is retried, up to allocAttempts
// times in all.
func TestScenarioSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops machines at random under the race detector")
	}
	s := Generate(SubSeed(1, 0))
	for _, tc := range []struct {
		name    string
		env     Env
		ceiling float64
	}{
		{"clean", Env{}, steadyStateAllocs},
		{"storm", Env{FaultRate: 40, Storm: true, Retire: true}, stormSteadyStateAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				for _, cfg := range AllConfigs {
					res, err := ExecuteEnv(s, cfg, tc.env)
					if err != nil || res.Err != nil {
						t.Fatalf("%v: %v / %v", cfg, err, res.Err)
					}
				}
			}
			run()
			run()
			for attempt := 1; attempt <= allocAttempts; attempt++ {
				built := PoolBuilt()
				avg := testing.AllocsPerRun(20, run)
				if PoolBuilt() != built {
					continue
				}
				t.Logf("%.1f allocs per scenario under %d configurations (attempt %d)", avg, len(AllConfigs), attempt)
				if avg > tc.ceiling {
					t.Fatalf("a %s scenario allocates %.1f objects on the recycled path, want ≤ %v", tc.name, avg, tc.ceiling)
				}
				return
			}
			t.Skipf("the machine pool missed (a GC drained it) in all %d attempts; the count is not steady-state", allocAttempts)
		})
	}
}
