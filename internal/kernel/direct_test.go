package kernel

import (
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/simtime"
)

// newDirectRig builds a rig whose controller implements the Section 2.2.3
// generalised ECC interface.
func newDirectRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, 1<<20)
	r.ctrl.EnableDirectECCAccess()
	return r
}

func TestDirectWatchFaultsWithIntactData(t *testing.T) {
	r := newDirectRig(t)
	mapHeap(t, r, 1)
	r.store(t, base, 0x1234567890abcdef)
	r.cache.FlushAll()

	orig, err := r.k.WatchMemory(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 0x1234567890abcdef {
		t.Fatalf("original = %#x", orig[0])
	}
	// The data in DRAM is NOT scrambled — only the check bits are.
	pa, _ := r.as.Translate(base, false)
	raw, check := r.ctrl.Memory().ReadGroupRaw(pa.GroupAddr())
	if raw != 0x1234567890abcdef {
		t.Fatalf("direct watch scrambled the data: %#x", raw)
	}
	if ecc.Check(check) != ecc.ScrambleCheck(ecc.Encode(raw)) {
		t.Fatalf("check bits not scramble-flipped")
	}

	var faults []ECCFault
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		faults = append(faults, *f)
		return r.k.DisableWatchMemory(f.VLine, 64) == nil
	})
	if got := r.load(t, base); got != 0x1234567890abcdef {
		t.Fatalf("first access = %#x", got)
	}
	if len(faults) != 1 {
		t.Fatalf("faults = %d", len(faults))
	}
	if !faults[0].Direct {
		t.Fatal("fault not marked Direct")
	}
	if faults[0].Data != 0x1234567890abcdef {
		t.Fatal("fault data should be the intact original")
	}
	// After disarm the memory is consistent.
	if got := r.load(t, base); got != 0x1234567890abcdef {
		t.Fatal("data corrupted after disarm")
	}
}

func TestDirectWatchCheaperThanScramble(t *testing.T) {
	direct := newDirectRig(t)
	mapHeap(t, direct, 1)
	classic := newRig(t, 1<<20)
	mapHeap(t, classic, 1)

	measure := func(r *rig) (simtime.Cycles, simtime.Cycles) {
		before := r.clock.Now()
		if _, err := r.k.WatchMemory(base, 64); err != nil {
			t.Fatal(err)
		}
		watch := r.clock.Now() - before
		before = r.clock.Now()
		if err := r.k.DisableWatchMemory(base, 64); err != nil {
			t.Fatal(err)
		}
		return watch, r.clock.Now() - before
	}
	dw, dd := measure(direct)
	cw, cd := measure(classic)
	if dw >= cw {
		t.Errorf("direct WatchMemory (%v) not cheaper than scramble path (%v)", dw, cw)
	}
	if dd >= cd {
		t.Errorf("direct DisableWatchMemory (%v) not cheaper than scramble path (%v)", dd, cd)
	}
	// The paper's motivation: no bus lock, no chipset mode switches. The
	// saving should be at least those costs.
	saved := cw - dw
	if saved < simtime.CostBusLock+simtime.CostBusUnlock+2*simtime.CostECCModeSwitch-200 {
		t.Errorf("direct path saved only %v", saved)
	}
}

func TestDirectWatchPinsAndCoordinatesLikeClassic(t *testing.T) {
	r := newDirectRig(t)
	mapHeap(t, r, 1)
	if _, err := r.k.WatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if r.as.Pinned(base) != 1 {
		t.Fatal("direct watch did not pin the page")
	}
	if !r.k.Watched(base) {
		t.Fatal("Watched() false")
	}
	if err := r.k.DisableWatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if r.as.Pinned(base) != 0 {
		t.Fatal("page still pinned")
	}
}

func TestDirectHardwareErrorRepair(t *testing.T) {
	// A real memory error that hits a direct-armed line must still be
	// distinguishable: the data no longer equals the saved original.
	r := newDirectRig(t)
	mapHeap(t, r, 1)
	r.store(t, base, 0xfeed)
	r.cache.FlushAll()
	orig, err := r.k.WatchMemory(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := r.as.Translate(base, false)
	r.ctrl.Memory().FlipDataBit(pa.GroupAddr(), 7)

	repaired := false
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if f.Data == orig[f.GroupIndex] {
			t.Fatal("corrupted data still matches the original")
		}
		repaired = true
		return r.k.DisableWatchMemoryWithData(f.VLine, 64, orig) == nil
	})
	if got := r.load(t, base); got != 0xfeed {
		t.Fatalf("restored read = %#x", got)
	}
	if !repaired {
		t.Fatal("handler never ran")
	}
}

func TestDirectCheckBitAccessRequiresCapability(t *testing.T) {
	r := newRig(t, 1<<20) // no capability
	defer func() {
		if recover() == nil {
			t.Fatal("WriteCheckBits without capability did not panic")
		}
	}()
	r.ctrl.WriteCheckBits(0, 0)
}

func TestMixedBackendsUnwatchIndependently(t *testing.T) {
	// Two regions armed under different capabilities on the same rig (the
	// capability is flipped between calls): each disarms correctly.
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 1)
	r.store(t, base+64, 2)
	r.cache.FlushAll()
	if _, err := r.k.WatchMemory(base, 64); err != nil { // scramble path
		t.Fatal(err)
	}
	r.ctrl.EnableDirectECCAccess()
	if _, err := r.k.WatchMemory(base+64, 64); err != nil { // direct path
		t.Fatal(err)
	}
	if err := r.k.DisableWatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if err := r.k.DisableWatchMemory(base+64, 64); err != nil {
		t.Fatal(err)
	}
	if got := r.load(t, base); got != 1 {
		t.Fatalf("region 1 = %d", got)
	}
	if got := r.load(t, base+64); got != 2 {
		t.Fatalf("region 2 = %d", got)
	}
}
