package campaign

import (
	"testing"

	"safemem/internal/machine"
)

// raceEnabled is set by race_test.go when the race detector is on. Race
// instrumentation allocates on its own (a scenario counts 71–72 objects
// clean and 83–84 on flaky DIMMs under -race), so the ceilings below hold
// only without it.
var raceEnabled = false

// steadyStateAllocs is the measured host allocation count of one fixed
// clean scenario run under every configuration on the recycled path. Most
// of what remains is per-run output: the result records, their report
// copies and bug-report strings, the sampler's site map, and the
// telemetry sources each run registers.
const steadyStateAllocs = 58

// stormSteadyStateAllocs is the same count for the scenario on flaky DIMMs
// (fault rate 40, storms, page retirement). On top of the clean run's
// output it pays, per configuration, the kernel's line-health records and
// the flight-recorder events and degradation records of the faults. The
// scrub daemon, its filter and timer, the health observer, the fault
// process's timer and its target list are storage kept across runs.
const stormSteadyStateAllocs = 70

// TestScenarioSteadyStateAllocs pins the garbage-free scenario path: once
// a pooled machine and the per-run storage its previous runs left behind
// (the heap allocator, the SafeMem tool, the injector, the fault process,
// the slot table) are warm, a scenario under every configuration allocates
// no more than its ceiling. The pool holds idle machines across garbage
// collections, so the measurement must not build one.
func TestScenarioSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the ceilings hold without -race")
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
			built := machine.PoolTotals().Built
			avg := testing.AllocsPerRun(20, run)
			if b := machine.PoolTotals().Built - built; b != 0 {
				t.Fatalf("the warm pool built %d machine(s) during the measurement", b)
			}
			t.Logf("%.1f allocs per scenario under %d configurations", avg, len(AllConfigs))
			if avg > tc.ceiling {
				t.Fatalf("a %s scenario allocates %.1f objects on the recycled path, want ≤ %v", tc.name, avg, tc.ceiling)
			}
		})
	}
}
