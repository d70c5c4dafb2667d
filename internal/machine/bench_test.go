package machine

import (
	"fmt"
	"testing"

	"safemem/internal/cache"
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
// that dominates the server apps' host time (their resident-table scans),
// one row per single-stream kind: per op, one aligned 8-byte LoadRun,
// ScanRun or StoreRun, a LoadByteRun, a StoreByteRun or a Memset over
// 128 KiB of resident lines. ns/line is host time per 64-byte line;
// allocs/op must stay 0, and a row fails if any access leaves the fast
// lane.
//
// The 128 KiB region fills each set of the default cache with four of its
// lines, in ways 0 to 3 in scan order, so a tag probe's exit is as
// predictable as it can be. The ways=mixed rows scan 32 KiB instead, one
// line a set like ypserv's DES table, after a second region has filled
// the same sets to a depth that varies from set to set: the scanned lines
// land in varying ways, and the probe pays what it pays in the apps.
func BenchmarkLoadRunScan(b *testing.B) {
	const (
		base   = vm.VAddr(0x100000)
		bytes  = 128 << 10
		other  = vm.VAddr(0x200000)
		mixed  = 32 << 10
		depths = 7 // the second region's lines a set: 7 × 32 KiB
	)
	words, bs := make([]uint64, bytes/8), make([]byte, bytes)
	for _, row := range []struct {
		name  string
		bytes uint64
		op    func(m *Machine)
	}{
		{"LoadRun", bytes, func(m *Machine) { m.LoadRun(base, 8, 8, words) }},
		{"ScanRun", bytes, func(m *Machine) { m.ScanRun(base, bytes/8) }},
		{"StoreRun", bytes, func(m *Machine) { m.StoreRun(base, 8, 8, words) }},
		{"LoadByteRun", bytes, func(m *Machine) { m.LoadByteRun(base, bs) }},
		{"StoreByteRun", bytes, func(m *Machine) { m.StoreByteRun(base, bs) }},
		{"Memset", bytes, func(m *Machine) { m.Memset(base, 0x5a, bytes) }},
		{"LoadRun/ways=mixed", mixed, func(m *Machine) { m.LoadRun(base, 8, 8, words[:mixed/8]) }},
		{"ScanRun/ways=mixed", mixed, func(m *Machine) { m.ScanRun(base, mixed/8) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			m := MustNew(Config{MemBytes: 1 << 20})
			if err := m.Kern.MapPages(base, int(row.bytes/vm.PageBytes)); err != nil {
				b.Fatal(err)
			}
			if row.bytes == mixed {
				fillSetsMixed(b, m, other, depths*mixed)
			}
			m.StoreRun(base, 8, 8, words[:row.bytes/8])
			row.op(m)
			_, _, slow := m.BatchStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.op(m)
			}
			b.StopTimer()
			if _, _, s := m.BatchStats(); s != slow {
				b.Fatalf("scan left the fast lane: %d slow accesses over resident lines", s-slow)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*row.bytes/physmem.LineBytes), "ns/line")
		})
	}
}

// fillSetsMixed maps bytes at va and loads, in each set of m's default
// cache, a pseudo-random number (0 to 7) of its lines there, so that lines filled
// after it land in ways that vary from set to set.
func fillSetsMixed(b *testing.B, m *Machine, va vm.VAddr, bytes uint64) {
	if err := m.Kern.MapPages(va, int(bytes/vm.PageBytes)); err != nil {
		b.Fatal(err)
	}
	sets := uint64(cache.DefaultConfig.Sets)
	filled := make([]uint8, sets)
	for off := uint64(0); off < bytes; off += physmem.LineBytes {
		frame, _ := m.AS.FrameOf(va + vm.VAddr(off))
		set := (uint64(frame) + off%vm.PageBytes) / physmem.LineBytes % sets
		if depth := uint8(set * 0x9e3779b97f4a7c15 >> 61); filled[set] < depth {
			filled[set]++
			m.Load(va+vm.VAddr(off), 8)
		}
	}
}

// BenchmarkCopyCompareRun is LoadRunScan's two-stream twin: per op, one
// aligned CopyRun of 128 KiB between resident regions, then a CompareRun
// of the two (a full match). ns/line is host time per 64-byte line copied
// and compared; allocs/op must stay 0.
func BenchmarkCopyCompareRun(b *testing.B) {
	const (
		src   = vm.VAddr(0x100000)
		dst   = vm.VAddr(0x200000)
		bytes = 128 << 10
		lines = bytes / physmem.LineBytes
	)
	m := MustNew(Config{MemBytes: 1 << 20})
	for _, va := range []vm.VAddr{src, dst} {
		if err := m.Kern.MapPages(va, bytes/vm.PageBytes); err != nil {
			b.Fatal(err)
		}
	}
	m.StoreRun(src, 8, 8, make([]uint64, bytes/8))
	m.CopyRun(dst, src, bytes)
	m.CompareRun(src, dst, bytes)
	_, _, slow := m.BatchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CopyRun(dst, src, bytes)
		if m.CompareRun(src, dst, bytes) != bytes {
			b.Fatal("copy and source differ")
		}
	}
	b.StopTimer()
	if _, _, s := m.BatchStats(); s != slow {
		b.Fatalf("copy or compare left the fast lane: %d slow accesses over resident lines", s-slow)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

// BenchmarkShortCompareRun measures the short compares of gzip's match
// loop: per op, one CompareRun of 1 to 127 bytes (cycling) between two
// equal resident regions on different pages. Each compare starts where the
// last one stopped, so the windows it left open cover the next one's first
// line, as they do for consecutive match attempts. allocs/op must stay 0,
// and it fails if any access leaves the fast lane.
func BenchmarkShortCompareRun(b *testing.B) {
	const (
		a     = vm.VAddr(0x100000)
		delta = vm.VAddr(vm.PageBytes)
	)
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Kern.MapPages(a, 2); err != nil {
		b.Fatal(err)
	}
	m.Memset(a, 0x5a, 2*vm.PageBytes)
	m.CompareRun(a, a+delta, vm.PageBytes)
	_, _, slow := m.BatchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i, pos := 0, vm.VAddr(0); i < b.N; i++ {
		n := 1 + i%127
		if m.CompareRun(a+pos, a+delta+pos, n) != n {
			b.Fatal("equal regions differ")
		}
		if pos += vm.VAddr(n); pos > vm.PageBytes-127 {
			pos = 0
		}
	}
	b.StopTimer()
	if _, _, s := m.BatchStats(); s != slow {
		b.Fatalf("compare left the fast lane: %d slow accesses over resident lines", s-slow)
	}
}

// BenchmarkMonitoredRun measures the runs the lane refuses at entry: per
// op, with a no-op monitor attached, one aligned 8-byte LoadRun of 4 KiB
// and one aligned 4 KiB CopyRun, over resident lines. Every element takes
// the per-access path. ns/elem is host time per element (a load, or a
// copy's load and store); it fails if any run enters the lane.
func BenchmarkMonitoredRun(b *testing.B) {
	const (
		src   = vm.VAddr(0x100000)
		dst   = vm.VAddr(0x200000)
		bytes = 4 << 10
		elems = 2 * bytes / 8
	)
	m := MustNew(Config{MemBytes: 1 << 20})
	for _, va := range []vm.VAddr{src, dst} {
		if err := m.Kern.MapPages(va, bytes/vm.PageBytes); err != nil {
			b.Fatal(err)
		}
	}
	words := make([]uint64, bytes/8)
	m.StoreRun(src, 8, 8, words)
	m.CopyRun(dst, src, bytes)
	m.AttachMonitor(&countingMonitor{})
	runs, _, _ := m.BatchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LoadRun(src, 8, 8, words)
		m.CopyRun(dst, src, bytes)
	}
	b.StopTimer()
	if r, _, _ := m.BatchStats(); r != runs {
		b.Fatalf("%d monitored runs entered the lane", r-runs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
}

// BenchmarkRunLength measures what a batched run costs beyond its lines:
// per op, a 32 KiB pass over resident lines cut into runs of a fixed
// length. The LoadRun rows are 8-byte LoadRuns of 1, 8, 64 and 512 lines
// a run (the apps' scans issue page-long runs, 64 lines); the CopyRun row
// is a co-aligned CopyRun of 8 lines a run, tar's 512-byte block. ns/line
// is host time per 64-byte line (per line copied, for CopyRun);
// allocs/op must stay 0, and a row fails if any access leaves the lane.
func BenchmarkRunLength(b *testing.B) {
	const (
		src   = vm.VAddr(0x100000)
		dst   = vm.VAddr(0x200000)
		bytes = 32 << 10
		lines = bytes / physmem.LineBytes
	)
	words := make([]uint64, bytes/8)
	pass := func(per uint64, run func(m *Machine, off uint64)) func(m *Machine) {
		return func(m *Machine) {
			for off := uint64(0); off < bytes; off += per * physmem.LineBytes {
				run(m, off)
			}
		}
	}
	load := func(per uint64) func(m *Machine) {
		return pass(per, func(m *Machine, off uint64) {
			m.LoadRun(src+vm.VAddr(off), 8, 8, words[off/8:off/8+per*physmem.GroupsPerLine])
		})
	}
	for _, row := range []struct {
		name string
		op   func(m *Machine)
	}{
		{"LoadRun/lines=1", load(1)},
		{"LoadRun/lines=8", load(8)},
		{"LoadRun/lines=64", load(64)},
		{"LoadRun/lines=512", load(512)},
		{"CopyRun/lines=8", pass(8, func(m *Machine, off uint64) {
			m.CopyRun(dst+vm.VAddr(off), src+vm.VAddr(off), 8*physmem.LineBytes)
		})},
	} {
		b.Run(row.name, func(b *testing.B) {
			m := MustNew(Config{MemBytes: 1 << 20})
			for _, va := range []vm.VAddr{src, dst} {
				if err := m.Kern.MapPages(va, bytes/vm.PageBytes); err != nil {
					b.Fatal(err)
				}
			}
			m.StoreRun(src, 8, 8, words)
			m.StoreRun(dst, 8, 8, words)
			row.op(m)
			_, _, slow := m.BatchStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.op(m)
			}
			b.StopTimer()
			if _, _, s := m.BatchStats(); s != slow {
				b.Fatalf("pass left the fast lane: %d slow accesses over resident lines", s-slow)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}
