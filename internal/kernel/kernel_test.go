package kernel

import (
	"strings"
	"testing"

	"safemem/internal/cache"
	"safemem/internal/ecc"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

type rig struct {
	clock *simtime.Clock
	ctrl  *memctrl.Controller
	cache *cache.Cache
	as    *vm.AddressSpace
	k     *Kernel
}

func newRig(t *testing.T, memBytes uint64) *rig {
	t.Helper()
	clock := &simtime.Clock{}
	mem := physmem.MustNew(memBytes)
	ctrl := memctrl.New(mem, clock)
	ch := cache.MustNew(ctrl, clock, cache.DefaultConfig)
	as := vm.New(mem, clock)
	k := New(clock, ctrl, ch, as)
	return &rig{clock: clock, ctrl: ctrl, cache: ch, as: as, k: k}
}

// load reads the word at virtual address va the way the CPU would: through
// translation and the cache.
func (r *rig) load(t *testing.T, va vm.VAddr) uint64 {
	t.Helper()
	pa, fault := r.as.Translate(va, false)
	if fault != nil {
		t.Fatalf("translate %#x: %v", uint64(va), fault)
	}
	return r.cache.LoadWord(pa)
}

func (r *rig) store(t *testing.T, va vm.VAddr, v uint64) {
	t.Helper()
	pa, fault := r.as.Translate(va, true)
	if fault != nil {
		t.Fatalf("translate %#x: %v", uint64(va), fault)
	}
	r.cache.StoreWord(pa, v)
}

const base = vm.VAddr(0x10000)

func mapHeap(t *testing.T, r *rig, pages int) {
	t.Helper()
	if err := r.k.MapPages(base, pages); err != nil {
		t.Fatal(err)
	}
}

func TestWatchMemoryAlignmentRules(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	if _, err := r.k.WatchMemory(base+8, 64); err == nil {
		t.Error("unaligned address accepted")
	}
	if _, err := r.k.WatchMemory(base, 100); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := r.k.WatchMemory(base, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := r.k.WatchMemory(0x900000, 64); err == nil {
		t.Error("unmapped region accepted")
	}
}

func TestWatchFaultsOnFirstAccessAndHandlerRepairs(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0xabcdef0123456789)
	r.cache.FlushAll() // start from a cold cache

	orig, err := r.k.WatchMemory(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 8 || orig[0] != 0xabcdef0123456789 {
		t.Fatalf("original data = %v", orig)
	}
	if !r.k.Watched(base + 13) {
		t.Fatal("Watched() false for watched line")
	}

	var faults []ECCFault
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		faults = append(faults, *f)
		if !f.Watched {
			return false
		}
		if err := r.k.DisableWatchMemory(f.VLine, 64); err != nil {
			t.Fatalf("DisableWatchMemory in handler: %v", err)
		}
		return true
	})

	if got := r.load(t, base); got != 0xabcdef0123456789 {
		t.Fatalf("first access = %#x, want original data", got)
	}
	if len(faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(faults))
	}
	f := faults[0]
	if !f.Watched || f.VLine != base || f.GroupIndex != 0 || f.DuringScrub {
		t.Fatalf("bad fault: %+v", f)
	}
	if !ecc.IsScrambleOf(f.Data, orig[0]) {
		t.Fatal("fault data does not carry the scramble signature")
	}
	if r.k.Watched(base) {
		t.Fatal("line still watched after handler disabled it")
	}
	// Subsequent accesses are plain cache hits: no more faults.
	r.load(t, base)
	r.load(t, base+8)
	if len(faults) != 1 {
		t.Fatalf("faults after unwatch = %d", len(faults))
	}
}

func TestWriteToWatchedLineAlsoFaults(t *testing.T) {
	// Writes don't reach DRAM directly, but write-allocate fetches the line
	// first — which is how SafeMem catches stores (Section 2.2.2).
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base+64, 7)
	r.cache.FlushAll()
	if _, err := r.k.WatchMemory(base+64, 64); err != nil {
		t.Fatal(err)
	}
	n := 0
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		n++
		return r.k.DisableWatchMemory(f.VLine, 64) == nil
	})
	r.store(t, base+64, 9)
	if n != 1 {
		t.Fatalf("store to watched line raised %d faults, want 1", n)
	}
	if got := r.load(t, base+64); got != 9 {
		t.Fatalf("value after store = %d, want 9", got)
	}
}

func TestDoubleWatchRejected(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	if _, err := r.k.WatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.WatchMemory(base, 64); err == nil {
		t.Fatal("double watch accepted")
	}
	if err := r.k.DisableWatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if err := r.k.DisableWatchMemory(base, 64); err == nil {
		t.Fatal("double disable accepted")
	}
}

func TestMultiLineWatch(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 2)
	for i := 0; i < 4; i++ {
		r.store(t, base+vm.VAddr(i*64), uint64(i+1))
	}
	r.cache.FlushAll()
	orig, err := r.k.WatchMemory(base, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 32 {
		t.Fatalf("len(orig) = %d, want 32", len(orig))
	}
	for i := 0; i < 4; i++ {
		if orig[i*8] != uint64(i+1) {
			t.Fatalf("orig[%d] = %d", i*8, orig[i*8])
		}
	}
	if r.k.Stats().LinesWatched != 4 {
		t.Fatalf("LinesWatched = %d", r.k.Stats().LinesWatched)
	}
	if err := r.k.DisableWatchMemory(base, 4*64); err != nil {
		t.Fatal(err)
	}
	if r.k.Stats().LinesWatched != 0 {
		t.Fatal("watches remain")
	}
}

func TestWatchPinsPages(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	if _, err := r.k.WatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if r.as.Pinned(base) != 1 {
		t.Fatalf("pin count = %d, want 1", r.as.Pinned(base))
	}
	if n := r.as.SwapOutLRU(10); n != 0 {
		t.Fatal("watched page was swapped out")
	}
	if err := r.k.DisableWatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	if r.as.Pinned(base) != 0 {
		t.Fatal("page still pinned after unwatch")
	}
}

func TestHardwareErrorPanicsWithoutHandler(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0x42)
	r.cache.FlushAll()
	// Inject a genuine double-bit hardware error.
	pa, _ := r.as.Translate(base, false)
	r.ctrl.Memory().FlipDataBit(pa.GroupAddr(), 1)
	r.ctrl.Memory().FlipDataBit(pa.GroupAddr(), 33)

	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recover() = %v, want *PanicError", v)
		}
		if !strings.Contains(pe.Error(), "uncorrectable ECC error") {
			t.Fatalf("panic message: %s", pe.Error())
		}
		if !r.k.Panicked() {
			t.Fatal("kernel not in panic mode")
		}
	}()
	r.load(t, base)
}

func TestHandlerReturningFalsePanics(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 1)
	r.cache.FlushAll()
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool { return false })
	pa, _ := r.as.Translate(base, false)
	r.ctrl.Memory().FlipDataBit(pa.GroupAddr(), 0)
	r.ctrl.Memory().FlipDataBit(pa.GroupAddr(), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("no kernel panic")
		}
		if r.k.Stats().ECCFaultsHardware != 1 {
			t.Fatal("hardware fault not counted")
		}
	}()
	r.load(t, base)
}

func TestCoordinatedScrubDoesNotTripWatches(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0x77)
	r.cache.FlushAll()
	r.ctrl.SetMode(memctrl.CorrectAndScrub)

	saved := map[vm.VAddr][]uint64{}
	watch := func(va vm.VAddr) {
		orig, err := r.k.WatchMemory(va, 64)
		if err != nil {
			t.Fatal(err)
		}
		saved[va] = orig
	}
	watch(base)

	spurious := 0
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		spurious++
		return false
	})
	// SafeMem's coordination: unwatch all before, rewatch after.
	r.k.SetScrubHooks(
		func() {
			for va := range saved {
				if err := r.k.DisableWatchMemory(va, 64); err != nil {
					t.Fatal(err)
				}
			}
		},
		func() {
			for va := range saved {
				if _, err := r.k.WatchMemory(va, 64); err != nil {
					t.Fatal(err)
				}
			}
		},
	)
	r.k.CoordinatedScrub()
	if spurious != 0 {
		t.Fatalf("scrub raised %d spurious faults", spurious)
	}
	if !r.k.Watched(base) {
		t.Fatal("watch not restored after scrub")
	}
	if r.k.Stats().ScrubPasses != 1 {
		t.Fatal("scrub pass not counted")
	}
}

func TestUncoordinatedScrubTripsWatch(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0x99)
	r.cache.FlushAll()
	r.ctrl.SetMode(memctrl.CorrectAndScrub)
	if _, err := r.k.WatchMemory(base, 64); err != nil {
		t.Fatal(err)
	}
	scrubFaults := 0
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if f.DuringScrub && f.Watched {
			scrubFaults++
			return r.k.DisableWatchMemory(f.VLine, 64) == nil
		}
		return false
	})
	r.ctrl.ScrubAll() // no coordination hooks
	if scrubFaults == 0 {
		t.Fatal("uncoordinated scrub did not trip the watch")
	}
}

func TestSyscallCostsMatchTable2(t *testing.T) {
	// Table 2: WatchMemory 2.0µs, DisableWatchMemory 1.5µs, mprotect 1.02µs.
	// The simulator should land within 5% of each.
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 1)
	r.cache.FlushAll()

	measure := func(f func()) float64 {
		before := r.clock.Now()
		f()
		return (r.clock.Now() - before).Microseconds()
	}
	watchUS := measure(func() {
		if _, err := r.k.WatchMemory(base, 64); err != nil {
			t.Fatal(err)
		}
	})
	disableUS := measure(func() {
		if err := r.k.DisableWatchMemory(base, 64); err != nil {
			t.Fatal(err)
		}
	})
	mprotectUS := measure(func() {
		if err := r.k.Mprotect(base, 1, vm.ProtNone); err != nil {
			t.Fatal(err)
		}
	})
	within := func(got, want, tol float64) bool {
		return got >= want*(1-tol) && got <= want*(1+tol)
	}
	if !within(watchUS, 2.0, 0.05) {
		t.Errorf("WatchMemory = %.3fµs, want ≈2.0µs", watchUS)
	}
	if !within(disableUS, 1.5, 0.05) {
		t.Errorf("DisableWatchMemory = %.3fµs, want ≈1.5µs", disableUS)
	}
	if !within(mprotectUS, 1.02, 0.05) {
		t.Errorf("Mprotect = %.3fµs, want ≈1.02µs", mprotectUS)
	}
	if watchUS <= mprotectUS || disableUS <= mprotectUS {
		t.Error("ECC watch calls should cost slightly more than mprotect (pinning)")
	}
}

func TestMprotectDeliversToRegisteredHandler(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	called := false
	r.k.RegisterPageFaultHandler(func(f *vm.Fault) bool {
		called = true
		return false
	})
	h := r.k.PageFaultHandler()
	if h == nil {
		t.Fatal("handler not registered")
	}
	h(&vm.Fault{})
	if !called {
		t.Fatal("handler not invoked")
	}
}

func TestWatchSpanningPageBoundary(t *testing.T) {
	// A watched region crossing a page boundary pins BOTH pages and every
	// line faults correctly.
	r := newRig(t, 1<<20)
	mapHeap(t, r, 2)
	// Two lines straddling the page boundary.
	start := base + vm.VAddr(vm.PageBytes-64)
	r.store(t, start, 0xaa)
	r.store(t, start+64, 0xbb)
	r.cache.FlushAll()
	if _, err := r.k.WatchMemory(start, 128); err != nil {
		t.Fatal(err)
	}
	if r.as.Pinned(base) != 1 || r.as.Pinned(base+vm.PageBytes) != 1 {
		t.Fatalf("pins = %d/%d, want 1/1", r.as.Pinned(base), r.as.Pinned(base+vm.PageBytes))
	}
	faults := 0
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		faults++
		return r.k.DisableWatchMemory(f.VLine, 64) == nil
	})
	if got := r.load(t, start); got != 0xaa {
		t.Fatalf("first line = %#x", got)
	}
	if got := r.load(t, start+64); got != 0xbb {
		t.Fatalf("second line = %#x", got)
	}
	if faults != 2 {
		t.Fatalf("faults = %d, want 2", faults)
	}
	// The second unwatch released each page's pin.
	if r.as.Pinned(base) != 0 || r.as.Pinned(base+vm.PageBytes) != 0 {
		t.Fatal("pins remain")
	}
}

func TestWatchUnmappedTailFailsCleanly(t *testing.T) {
	// A region whose tail is unmapped must fail without leaving partial
	// watches or pins behind.
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	lastLine := base + vm.VAddr(vm.PageBytes-64)
	if _, err := r.k.WatchMemory(lastLine, 128); err == nil {
		t.Fatal("watch into unmapped memory succeeded")
	}
	if r.k.Stats().LinesWatched != 0 {
		t.Fatal("partial watch left behind")
	}
	if r.as.Pinned(base) != 0 {
		t.Fatal("pin leaked")
	}
}

// TestNestedECCFaultKeepsOuterRecord pins the reuse of fault records: a
// handler that faults again on another watched line gets a second record,
// and its own record still describes its line afterwards.
func TestNestedECCFaultKeepsOuterRecord(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	for _, line := range []vm.VAddr{base, base + physmem.LineBytes} {
		if _, err := r.k.WatchMemory(line, physmem.LineBytes); err != nil {
			t.Fatal(err)
		}
	}
	var lines []vm.VAddr
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		line, pline := f.VLine, f.PLine
		if err := r.k.DisableWatchMemory(line, physmem.LineBytes); err != nil {
			t.Fatal(err)
		}
		if line == base {
			r.load(t, base+physmem.LineBytes)
		}
		if f.VLine != line || f.PLine != pline {
			t.Errorf("fault record on %#x now reads line %#x", uint64(line), uint64(f.VLine))
		}
		lines = append(lines, line)
		return true
	})
	r.load(t, base)
	if want := []vm.VAddr{base + physmem.LineBytes, base}; len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Errorf("handled lines %#x, want %#x", lines, want)
	}
}
