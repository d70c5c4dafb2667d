package campaign

import (
	"testing"

	"safemem/internal/machine"
)

// benchScenarios is the fixed scenario set BenchmarkScenario cycles
// through, so bytes/op and ns/op describe the same mix at any b.N.
const benchScenarios = 64

// BenchmarkScenario measures one campaign op the way the repository
// benchmark's campaign workloads run it: generate a scenario, execute it
// under every configuration (the uninstrumented baseline first) and judge
// each instrumented run. Machines come from the machine pool, warmed before
// the timer starts, so this is the recycled path: it fails if the pool
// builds a machine while timed (builds/op must read 0), and -benchmem's
// B/op is the host garbage one scenario leaves behind.
func BenchmarkScenario(b *testing.B) {
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
			built := machine.PoolTotals().Built
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
			b.StopTimer()
			builds := machine.PoolTotals().Built - built
			b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
			if builds != 0 {
				b.Fatalf("the warm pool built %d machine(s) in %d ops, want 0", builds, b.N)
			}
		})
	}
}
