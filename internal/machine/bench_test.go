package machine

import (
	"fmt"
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/vm"
)

func newBenchMachine(b testing.TB) *Machine {
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Kern.MapPages(0x10000, 4); err != nil {
		b.Fatal(err)
	}
	// Warm the cache and TLB so the steady state is the measured path.
	m.Store64(0x10000, 1)
	m.Load64(0x10000)
	return m
}

// BenchmarkMachineLoad measures the full simulated-load path in its steady
// state: monitor fan-out (none), TLB hit, cache hit, deferred-work gate.
func BenchmarkMachineLoad(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000, 8)
	}
}

// BenchmarkMachineStore is the store-side counterpart.
func BenchmarkMachineStore(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(0x10000, 8, uint64(i))
	}
}

// BenchmarkMachineLoadStride walks a multi-page region, exercising TLB and
// cache replacement rather than the single-line best case.
func BenchmarkMachineLoadStride(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000+vm.VAddr(i*64%(4*vm.PageBytes)), 8)
	}
}

// TestAccessPathNoAllocs pins the zero-allocation property of the access
// loop: the closure+defer the loop used to carry allocated on every single
// simulated load and store.
func TestAccessPathNoAllocs(t *testing.T) {
	m := newBenchMachine(t)
	if avg := testing.AllocsPerRun(1000, func() {
		m.Load(0x10000, 8)
		m.Store(0x10008, 4, 7)
		m.Load(0x10040, 1)
		m.Compute(3)
	}); avg != 0 {
		t.Fatalf("access path allocates %.1f objects per round, want 0", avg)
	}
}

// BenchmarkMachineNew measures a cold New of the campaign executor's
// configuration (32 MiB of DRAM): what a machine pool pays on every miss.
// DRAM chunks are allocated on first write, so B/op covers the cache,
// page tables, bitmaps and the pristine snapshot, not the simulated DRAM.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustNew(Config{MemBytes: 32 << 20})
	}
}

// BenchmarkRecycleFewDirtyLines measures Recycle after a run that wrote
// back 16 lines spread across DRAM. Recycling costs O(work the run did), so
// ns/op stays roughly flat as MemBytes grows eightfold: only host cache
// misses on the scattered lines and a longer summary scan grow with it.
func BenchmarkRecycleFewDirtyLines(b *testing.B) {
	for _, mib := range []uint64{32, 256} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			m := MustNew(Config{MemBytes: mib << 20})
			stride := physmem.Addr(mib<<20) / 16
			var line [physmem.GroupsPerLine]uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := physmem.Addr(0); l < 16; l++ {
					line[0] = uint64(i)
					m.Ctrl.WriteLine(l*stride, line)
				}
				m.Recycle()
			}
		})
	}
}

// BenchmarkLoadRunScan measures the batch lane's span engine on the shape
// that dominates the server apps' host time (their resident-table scans):
// one aligned 8-byte LoadRun over 128 KiB of resident lines per op.
// ns/line is host time per 64-byte line; allocs/op must stay 0.
func BenchmarkLoadRunScan(b *testing.B) {
	const (
		base  = vm.VAddr(0x100000)
		bytes = 128 << 10
		lines = bytes / physmem.LineBytes
	)
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Kern.MapPages(base, bytes/vm.PageBytes); err != nil {
		b.Fatal(err)
	}
	buf := make([]uint64, bytes/8)
	m.StoreRun(base, 8, 8, buf)
	m.LoadRun(base, 8, 8, buf)
	_, _, slow := m.BatchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LoadRun(base, 8, 8, buf)
	}
	b.StopTimer()
	if _, _, s := m.BatchStats(); s != slow {
		b.Fatalf("scan left the fast lane: %d slow accesses over resident lines", s-slow)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}
