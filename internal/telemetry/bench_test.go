package telemetry

import (
	"testing"

	"safemem/internal/simtime"
)

// BenchmarkDisabledSpan measures a Begin/End pair on a tracer that is
// attached but not recording, shaped like the kernel's syscall spans (two
// args): the cost every instrumented hot path pays with tracing off. It
// reports 0 allocs/op.
func BenchmarkDisabledSpan(b *testing.B) {
	reg := NewRegistry("", Config{}) // tracing off
	var clock simtime.Clock
	reg.AttachClock(&clock)
	tr := reg.Tracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("kernel", "WatchMemory", KV("va", uint64(i)), KV("bytes", 64))
		sp.End()
	}
}
