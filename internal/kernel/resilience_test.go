package kernel

import (
	"strings"
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// plantBad corrupts the ECC group at pa so the next checked read reports an
// uncorrectable error: flush any cached copy, then scramble the stored data
// while leaving the check bits stale (the same signature a DRAM multi-bit
// fault presents).
func plantBad(r *rig, pa physmem.Addr) {
	r.cache.FlushLine(pa.LineAddr())
	data, _ := r.ctrl.Memory().ReadGroupRaw(pa)
	r.ctrl.Memory().WriteGroupDataOnly(pa, ecc.Scramble(data))
}

// watchedPLine returns the physical line of the watched virtual line va.
func watchedPLine(t *testing.T, r *rig, va vm.VAddr) physmem.Addr {
	t.Helper()
	frame, ok := r.as.FrameOf(va)
	pl := frame + physmem.Addr(va.PageOffset())
	if !ok || !r.k.watchedPhys(pl) {
		t.Fatalf("line %#x not watched", uint64(va))
	}
	return pl
}

func TestUnwatchedFaultPanicsUnderStockPolicy(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0xdead)
	pa, _ := r.as.Translate(base, false)
	plantBad(r, pa)

	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v, want *PanicError", v)
		}
		if !strings.Contains(pe.Msg, "uncorrectable ECC error") {
			t.Fatalf("panic message %q", pe.Msg)
		}
		if !r.k.Panicked() {
			t.Error("kernel not in panic mode")
		}
	}()
	r.load(t, base)
	t.Fatal("load of corrupted unwatched line did not panic")
}

func TestUnwatchedFaultSurvivesUnderRetireAndContinue(t *testing.T) {
	r := newRig(t, 1<<20)
	r.k.SetResilience(ResilienceOptions{Policy: RetireAndContinue})
	mapHeap(t, r, 1)
	r.store(t, base, 0xdead)
	pa, _ := r.as.Translate(base, false)
	plantBad(r, pa)

	// The fault is absorbed: no panic, the observed (corrupt) word becomes
	// the accepted value, and the event is charged to the line's health.
	got := r.load(t, base)
	if got != ecc.Scramble(0xdead) {
		t.Fatalf("surviving load = %#x, want the corrupt word %#x", got, ecc.Scramble(0xdead))
	}
	if r.k.Panicked() {
		t.Fatal("kernel panicked despite RetireAndContinue")
	}
	rs := r.k.ResilienceStats()
	if rs.DataLossEvents != 1 {
		t.Fatalf("DataLossEvents = %d, want 1", rs.DataLossEvents)
	}
	if h := r.k.LineHealth(pa); h != DefaultResilienceOptions().UncorrectableWeight {
		t.Fatalf("LineHealth = %d, want %d", h, DefaultResilienceOptions().UncorrectableWeight)
	}
	// The rewrite restored a valid codeword: the next load is clean.
	before := r.ctrl.Stats().Uncorrectable
	if got := r.load(t, base+8); got != 0 {
		t.Fatalf("neighbour word = %#x, want 0", got)
	}
	r.cache.FlushLine(pa.LineAddr())
	_ = r.load(t, base)
	if r.ctrl.Stats().Uncorrectable != before {
		t.Fatal("line still faults after survive rewrite")
	}
}

func TestRepeatedFaultsRetireTheFrame(t *testing.T) {
	r := newRig(t, 1<<20)
	r.k.SetResilience(ResilienceOptions{Policy: RetireAndContinue})
	mapHeap(t, r, 1)
	r.store(t, base, 0x1111)
	r.store(t, base+vm.VAddr(physmem.LineBytes), 0x2222)
	oldFrame, _ := r.as.FrameOf(base)

	// Two absorbed uncorrectables on the same line reach the default
	// threshold (2 × weight 4 ≥ 8) and queue the frame for retirement.
	for i := 0; i < 2; i++ {
		pa, _ := r.as.Translate(base, false)
		plantBad(r, pa)
		r.load(t, base)
	}
	if r.as.RetiredFrames() != 0 {
		t.Fatal("retirement ran inside the interrupt, not at the deferred point")
	}
	r.k.RunDeferredWork()
	if r.as.RetiredFrames() != 1 || !r.as.Retired(oldFrame) {
		t.Fatalf("frame %#x not retired (retired=%d)", oldFrame, r.as.RetiredFrames())
	}
	rs := r.k.ResilienceStats()
	if rs.PagesRetired != 1 {
		t.Fatalf("PagesRetired = %d, want 1", rs.PagesRetired)
	}
	// Data on the page survived the migration; the page now lives on a
	// different frame and its health history is gone.
	if got, _ := r.as.FrameOf(base); got == oldFrame {
		t.Fatal("page still on the retired frame")
	}
	if got := r.load(t, base+vm.VAddr(physmem.LineBytes)); got != 0x2222 {
		t.Fatalf("neighbour line = %#x after retirement, want 0x2222", got)
	}
	pa, _ := r.as.Translate(base, false)
	if h := r.k.LineHealth(pa); h != 0 {
		t.Fatalf("health not cleared after retirement: %d", h)
	}
}

func TestHardwareRepairOnWatchedLineFeedsHealth(t *testing.T) {
	r := newRig(t, 1<<20)
	r.k.SetResilience(ResilienceOptions{Policy: RetireAndContinue})
	mapHeap(t, r, 1)
	r.store(t, base, 0xfeed)
	orig, err := r.k.WatchMemory(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	pl := watchedPLine(t, r, base)
	// A real hardware error on the watched line: the stored word no longer
	// equals Scramble(original), so the handler diagnoses hardware, repairs
	// from its saved copy, and reports Hardware=true.
	data, check := r.ctrl.Memory().ReadGroupRaw(pl)
	r.ctrl.Memory().WriteGroupRaw(pl, data^(1<<17), check)

	repaired := false
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if !f.Watched {
			return false
		}
		if f.Data == ecc.Scramble(orig[f.GroupIndex]) {
			t.Fatal("signature matches: this should look like hardware, not a trip")
		}
		f.Hardware = true
		if err := r.k.DisableWatchMemoryWithData(f.VLine, 64, orig); err != nil {
			t.Fatalf("repair failed: %v", err)
		}
		repaired = true
		return true
	})
	if got := r.load(t, base); got != 0xfeed {
		t.Fatalf("repaired load = %#x, want 0xfeed", got)
	}
	if !repaired {
		t.Fatal("handler never ran")
	}
	if h := r.k.LineHealth(pl); h != DefaultResilienceOptions().UncorrectableWeight {
		t.Fatalf("LineHealth = %d after hardware repair, want %d",
			h, DefaultResilienceOptions().UncorrectableWeight)
	}
}

func TestRetirementRemapsWatches(t *testing.T) {
	r := newRig(t, 1<<20)
	r.k.SetResilience(ResilienceOptions{Policy: RetireAndContinue, RetireThreshold: 4})
	mapHeap(t, r, 1)
	r.store(t, base, 0xabcd)
	orig, err := r.k.WatchMemory(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	oldPl := watchedPLine(t, r, base)
	oldFrame := oldPl &^ physmem.Addr(vm.PageBytes-1)
	oldRec := r.k.watches.Get(frameIndex(oldFrame))

	var notified []vm.VAddr
	r.k.SetRetireNotifier(func(old, fresh physmem.Addr, moved []vm.VAddr) {
		if old != oldFrame {
			t.Errorf("notifier old frame %#x, want %#x", old, oldFrame)
		}
		notified = moved
	})
	// Push a *different* line on the same frame over the threshold; the
	// whole frame retires and the watch must follow the page.
	r.k.noteHealth(oldFrame+physmem.Addr(physmem.LineBytes), 4)
	r.k.RunDeferredWork()

	if r.as.RetiredFrames() != 1 {
		t.Fatal("frame not retired")
	}
	if len(notified) != 1 || notified[0] != base {
		t.Fatalf("notifier moved watches = %v, want [%#x]", notified, uint64(base))
	}
	newPl := watchedPLine(t, r, base)
	if newPl == oldPl {
		t.Fatal("watch still points at the retired frame")
	}
	if r.k.watchedPhys(oldPl) {
		t.Fatal("stale watch record for the retired frame")
	}
	newFrame := newPl &^ physmem.Addr(vm.PageBytes-1)
	if got := r.k.watches.Get(frameIndex(newFrame)); got != oldRec {
		t.Fatalf("record on the fresh frame %+v, want the retired frame's %+v", got, oldRec)
	}
	if got := r.k.watches.Get(frameIndex(oldFrame)); got != (watchPage{}) {
		t.Fatalf("retired frame keeps record %+v, want none", got)
	}
	if r.k.ResilienceStats().WatchesMigrated != 1 {
		t.Fatalf("WatchesMigrated = %d, want 1", r.k.ResilienceStats().WatchesMigrated)
	}

	// The scramble travelled with the raw copy: touching the watched word
	// still faults, and the saved copy still repairs it.
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if !f.Watched || f.VLine != base {
			t.Errorf("fault not attributed to the migrated watch: %+v", f)
			return false
		}
		if err := r.k.DisableWatchMemoryWithData(f.VLine, 64, orig); err != nil {
			t.Fatalf("repair failed: %v", err)
		}
		return true
	})
	if got := r.load(t, base); got != 0xabcd {
		t.Fatalf("post-migration load = %#x, want 0xabcd", got)
	}
}

func TestSurviveDropsUnrepairedWatch(t *testing.T) {
	r := newRig(t, 1<<20)
	r.k.SetResilience(ResilienceOptions{Policy: RetireAndContinue})
	mapHeap(t, r, 1)
	r.store(t, base, 0x77)
	if _, err := r.k.WatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	// No handler registered: the watch trip goes unhandled. Under
	// RetireAndContinue the kernel absorbs it, dropping the orphaned watch
	// instead of panicking.
	_ = r.load(t, base)
	if r.k.Panicked() {
		t.Fatal("kernel panicked")
	}
	if r.k.Watched(base) {
		t.Fatal("watch bookkeeping survived an unrepaired fault")
	}
	if r.k.ResilienceStats().DataLossEvents != 1 {
		t.Fatalf("DataLossEvents = %d, want 1", r.k.ResilienceStats().DataLossEvents)
	}
	if r.as.Pinned(base.PageAddr()) != 0 {
		t.Fatal("page still pinned after watch was dropped")
	}
}
