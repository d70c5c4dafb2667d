package apps

import (
	"testing"

	"safemem/internal/heap"
	"safemem/internal/machine"
)

// benchApp runs one uninstrumented app per iteration and reports host
// nanoseconds per simulated instruction — the per-app view of the
// repository benchmark's apps-bare workload, convenient for profiling a
// single workload (go test -bench App/gzip -cpuprofile ...).
func benchApp(b *testing.B, name string) {
	app, ok := Get(name)
	if !ok {
		b.Fatalf("unknown app %s", name)
	}
	m := machine.MustNew(machine.DefaultConfig())
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Recycle()
		alloc, err := heap.New(m, heap.Options{Limit: 48 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e := &Env{M: m, Alloc: alloc}
		if err := m.Run(func() error { return app.Run(e, Config{Seed: 42}) }); err != nil {
			b.Fatal(err)
		}
		instrs = m.Instructions()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs)/float64(b.N), "ns/instr")
}

func BenchmarkApp(b *testing.B) {
	for _, a := range All() {
		b.Run(a.Name, func(b *testing.B) { benchApp(b, a.Name) })
	}
}
