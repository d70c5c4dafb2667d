package machine

import (
	"testing"

	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// runRecycleWorkload exercises every subsystem Recycle must reset — cache,
// controller clean bits, VM/TLB, watches, resilience queues, call stack —
// and returns a digest of all observable simulated state.
type recycleDigest struct {
	cycles   simtime.Cycles
	instrs   uint64
	mstats   Stats
	vmstats  vm.Stats
	kstats   kernel.Stats
	caps     memctrl.Capabilities
	checksum uint64
	err      string
}

func runRecycleWorkload(t *testing.T, m *Machine) recycleDigest {
	t.Helper()
	err := m.Run(func() error {
		if err := m.Kern.MapPages(0x20000, 8); err != nil {
			return err
		}
		for i := vm.VAddr(0); i < 8*vm.PageBytes; i += 64 {
			m.Store64(0x20000+i, uint64(i)*0x9e3779b97f4a7c15)
		}
		m.Cache.FlushAll()
		// Arm a watch and trip it; the handler disarms, as SafeMem would.
		if _, err := m.Kern.WatchMemory(0x20000, 128); err != nil {
			return err
		}
		m.Kern.RegisterECCFaultHandler(func(f *kernel.ECCFault) bool {
			return m.Kern.DisableWatchMemory(f.VLine, 64) == nil
		})
		m.Load64(0x20040)
		if err := m.Kern.DisableWatchMemory(0x20000, 64); err != nil {
			return err
		}
		// Protection fault with a resolving handler.
		if err := m.Kern.Mprotect(0x21000, 1, vm.ProtRead); err != nil {
			return err
		}
		m.Kern.RegisterPageFaultHandler(func(f *vm.Fault) bool {
			return m.Kern.Mprotect(f.Addr.PageAddr(), 1, vm.ProtRW) == nil
		})
		m.Store64(0x21000, 42)
		m.AS.SwapOutLRU(2)
		m.Call(0x1234)
		m.Compute(500)
		m.Return()
		return nil
	})
	d := recycleDigest{
		cycles:  m.Clock.Now(),
		instrs:  m.Instructions(),
		mstats:  m.Stats(),
		vmstats: m.AS.Stats(),
		kstats:  m.Kern.Stats(),
		caps:    m.Ctrl.Capabilities(),
	}
	if err != nil {
		d.err = err.Error()
	}
	for i := vm.VAddr(0); i < 8*vm.PageBytes; i += 8 {
		if w, ok := m.PeekWord(0x20000 + i); ok {
			d.checksum = d.checksum*31 + w
		}
	}
	return d
}

// TestMachineRecycleEquivalence pins that a recycled machine reproduces a
// fresh machine bit-for-bit: same cycles, same stats across components,
// same memory contents, same controller capabilities — the direct-ECC
// interface included. The campaign-level version (pooled executor, JSON
// summaries) is TestRecycleEquivalence in internal/campaign.
func TestMachineRecycleEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		{MemBytes: 1 << 22},
		{MemBytes: 1 << 22, DirectECCAccess: true},
	} {
		testRecycleEquivalence(t, cfg)
	}
}

func testRecycleEquivalence(t *testing.T, cfg Config) {
	fresh := runRecycleWorkload(t, MustNew(cfg))

	m := MustNew(cfg)
	_ = runRecycleWorkload(t, m) // dirty the machine
	m.Recycle()
	recycled := runRecycleWorkload(t, m)

	if recycled != fresh {
		t.Fatalf("recycled run diverges from fresh run:\nfresh:    %+v\nrecycled: %+v", fresh, recycled)
	}

	// A second recycle after an aborted (panicking) program must also come
	// back clean.
	m.Recycle()
	aborted := m.Run(func() error {
		if err := m.Kern.MapPages(0x20000, 1); err != nil {
			return err
		}
		m.Load64(0x20000)
		Abort("mid-program stop")
		return nil
	})
	if aborted == nil {
		t.Fatal("expected ProgramAbort")
	}
	if _, _, _, ok := m.AccessInFlight(); ok {
		t.Fatal("access still in flight after recovered abort")
	}
	m.Recycle()
	again := runRecycleWorkload(t, m)
	if again != fresh {
		t.Fatalf("post-abort recycled run diverges:\nfresh: %+v\ngot:   %+v", fresh, again)
	}
}
