package campaign

import (
	"runtime"
	"testing"

	"safemem/internal/machine"
)

// benchScenarios is the fixed scenario set BenchmarkScenario cycles
// through, so bytes/op and ns/op describe the same mix at any b.N.
const benchScenarios = 64

// totalAlloc returns the bytes allocated since process start.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// BenchmarkScenario measures one campaign op the way the repository
// benchmark's campaign workloads run it: generate a scenario, execute it
// under every configuration (the uninstrumented baseline first) and judge
// each instrumented run. Machines come from the executor pool, warmed
// before the timer starts, so this is the recycled path.
//
// -benchmem's B/op also counts every machine the pool had to rebuild (its
// sync.Pool can miss, and a crashed run's machine is dropped), each tens of
// MB; builds/op reports those. garbage-B/op is B/op without them: the host
// garbage one scenario leaves behind.
func BenchmarkScenario(b *testing.B) {
	before := totalAlloc()
	machine.MustNew(machine.Config{MemBytes: execMemBytes})
	buildBytes := totalAlloc() - before
	for _, bc := range []struct {
		name string
		env  Env
	}{
		{"clean", Env{}},
		{"storm", Env{FaultRate: 40, Storm: true, Retire: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op := func(i int) {
				s := Generate(SubSeed(1, i%benchScenarios))
				for _, cfg := range AllConfigs {
					res, err := ExecuteEnv(s, cfg, bc.env)
					if err != nil {
						b.Fatal(err)
					}
					if cfg != CfgNone {
						Judge(s, cfg, res)
					}
				}
			}
			op(0)
			built, alloc := PoolBuilt(), totalAlloc()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
			b.StopTimer()
			builds := PoolBuilt() - built
			garbage := float64(totalAlloc()-alloc) - float64(builds*buildBytes)
			b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
			b.ReportMetric(garbage/float64(b.N), "garbage-B/op")
		})
	}
}
