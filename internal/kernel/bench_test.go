package kernel

import (
	"testing"

	"safemem/internal/cache"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

func newBenchRig(b *testing.B, direct bool) (*Kernel, *simtime.Clock) {
	b.Helper()
	clock := &simtime.Clock{}
	mem := physmem.MustNew(8 << 20)
	ctrl := memctrl.New(mem, clock)
	if direct {
		ctrl.EnableDirectECCAccess()
	}
	ch := cache.MustNew(ctrl, clock, cache.DefaultConfig)
	as := vm.New(mem, clock)
	k := New(clock, ctrl, ch, as)
	if err := k.MapPages(0x100000, 64); err != nil {
		b.Fatal(err)
	}
	return k, clock
}

// benchWatchPair measures one steady-state watch/unwatch pair, saving the
// originals into a reused buffer the way SafeMem's library does.
func benchWatchPair(b *testing.B, direct bool, lines uint64) {
	k, _ := newBenchRig(b, direct)
	size := lines * physmem.LineBytes
	var buf []uint64
	pair := func() {
		var err error
		if buf, err = k.AppendWatchMemory(buf[:0], 0x100000, size); err != nil {
			b.Fatal(err)
		}
		if err := k.DisableWatchMemory(0x100000, size); err != nil {
			b.Fatal(err)
		}
	}
	pair() // grow the buffer and the kernel's scratch once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}

func BenchmarkWatchUnwatch1Line(b *testing.B)        { benchWatchPair(b, false, 1) }
func BenchmarkWatchUnwatch16Lines(b *testing.B)      { benchWatchPair(b, false, 16) }
func BenchmarkWatchUnwatchDirect1Line(b *testing.B)  { benchWatchPair(b, true, 1) }
func BenchmarkWatchUnwatchDirect16Line(b *testing.B) { benchWatchPair(b, true, 16) }

func BenchmarkMprotectPair(b *testing.B) {
	k, _ := newBenchRig(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Mprotect(0x100000, 1, vm.ProtNone); err != nil {
			b.Fatal(err)
		}
		if err := k.Mprotect(0x100000, 1, vm.ProtRW); err != nil {
			b.Fatal(err)
		}
	}
}
