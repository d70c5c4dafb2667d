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
const steadyStateAllocs = 97

// TestScenarioSteadyStateAllocs pins the garbage-free scenario path: once
// a pooled machine and the per-run storage its previous runs left behind
// (the heap allocator, the SafeMem tool, the slot table) are warm, a clean
// scenario under every configuration allocates no more than
// steadyStateAllocs objects.
func TestScenarioSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops machines at random under the race detector")
	}
	s := Generate(SubSeed(1, 0))
	run := func() {
		for _, cfg := range AllConfigs {
			res, err := ExecuteEnv(s, cfg, Env{})
			if err != nil || res.Err != nil {
				t.Fatalf("%v: %v / %v", cfg, err, res.Err)
			}
		}
	}
	run()
	run()
	built := PoolBuilt()
	avg := testing.AllocsPerRun(20, run)
	if PoolBuilt() != built {
		t.Skip("the machine pool missed (a GC drained it); the count is not steady-state")
	}
	t.Logf("%.1f allocs per scenario under %d configurations", avg, len(AllConfigs))
	if avg > steadyStateAllocs {
		t.Fatalf("a clean scenario allocates %.1f objects on the recycled path, want ≤ %d", avg, steadyStateAllocs)
	}
}
