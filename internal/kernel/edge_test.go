package kernel

import (
	"strings"
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
)

// TestDoubleDisableWatch: disabling a watch twice must fail cleanly the
// second time, and the failure must leave the kernel consistent enough to
// re-arm the same line.
func TestDoubleDisableWatch(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 4)
	r.store(t, base, 0x1111_2222_3333_4444)

	if _, err := r.k.WatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if err := r.k.DisableWatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	err := r.k.DisableWatchMemory(base, physmem.LineBytes)
	if err == nil || !strings.Contains(err.Error(), "not watched") {
		t.Fatalf("second disable = %v, want 'not watched'", err)
	}
	if got := r.as.Pinned(base); got != 0 {
		t.Fatalf("pin count = %d after double disable, want 0", got)
	}
	// The failed call must not have broken anything: re-arm and restore.
	orig, err := r.k.WatchMemory(base, physmem.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 0x1111_2222_3333_4444 {
		t.Fatalf("re-watch saved %#x", orig[0])
	}
	if err := r.k.DisableWatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if got := r.load(t, base); got != 0x1111_2222_3333_4444 {
		t.Fatalf("data after re-watch cycle = %#x", got)
	}
}

// TestDisablePartiallyWatchedRegion: a disable covering watched and
// unwatched lines must fail up front without disarming anything.
func TestDisablePartiallyWatchedRegion(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 4)
	r.store(t, base, 0xaaaa)

	if _, err := r.k.WatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	err := r.k.DisableWatchMemory(base, 2*physmem.LineBytes)
	if err == nil || !strings.Contains(err.Error(), "not watched") {
		t.Fatalf("partial disable = %v, want 'not watched'", err)
	}
	if !r.k.Watched(base) {
		t.Fatal("failed partial disable disarmed the watched line")
	}
	// The exact extent still disarms normally.
	if err := r.k.DisableWatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if got := r.load(t, base); got != 0xaaaa {
		t.Fatalf("data = %#x", got)
	}
}

// TestScrubHitsWatchedLineWithoutHooks: without the Section 2.2.2
// coordination, a scrub pass walks straight into the scrambled groups and
// raises spurious watch faults — the failure mode the hooks exist to
// prevent.
func TestScrubHitsWatchedLineWithoutHooks(t *testing.T) {
	r := newRig(t, 1<<20)
	r.ctrl.SetMode(memctrl.CorrectAndScrub)
	mapHeap(t, r, 4)
	r.store(t, base, 0xbead)

	orig, err := r.k.WatchMemory(base, physmem.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	var spurious int
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if !f.DuringScrub || !f.Watched {
			t.Errorf("unexpected fault: scrub=%v watched=%v", f.DuringScrub, f.Watched)
		}
		if f.GroupIndex == 0 && !ecc.IsScrambleOf(f.Data, orig[0]) {
			t.Errorf("fault data %#x is not the scramble of %#x", f.Data, orig[0])
		}
		spurious++
		return true
	})
	r.k.CoordinatedScrub()
	if spurious == 0 {
		t.Fatal("scrub over a watched line raised no faults — the coordination protocol would be pointless")
	}
}

// TestCoordinatedScrubRacesWatchArm: the scrub hooks disarm every watch
// before the pass and re-arm after, exactly SafeMem's protocol. The pass
// must stay silent, and the re-armed watch must still trip on the next
// access.
func TestCoordinatedScrubRacesWatchArm(t *testing.T) {
	r := newRig(t, 1<<20)
	r.ctrl.SetMode(memctrl.CorrectAndScrub)
	mapHeap(t, r, 4)
	r.store(t, base, 0xfeed_f00d_dead_beef)

	orig, err := r.k.WatchMemory(base, physmem.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	r.k.SetScrubHooks(
		func() {
			if err := r.k.DisableWatchMemory(base, physmem.LineBytes); err != nil {
				t.Fatalf("before-hook disarm: %v", err)
			}
		},
		func() {
			var werr error
			if orig, werr = r.k.WatchMemory(base, physmem.LineBytes); werr != nil {
				t.Fatalf("after-hook re-arm: %v", werr)
			}
		},
	)
	var faults []ECCFault
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		faults = append(faults, *f)
		return true
	})

	r.k.CoordinatedScrub()
	if len(faults) != 0 {
		t.Fatalf("coordinated scrub raised %d faults, want 0", len(faults))
	}
	if !r.k.Watched(base) {
		t.Fatal("after-hook did not re-arm the watch")
	}
	if orig[0] != 0xfeed_f00d_dead_beef {
		t.Fatalf("re-arm saved %#x — scrub corrupted the unwatched window", orig[0])
	}

	// The re-armed watch must still trip: a demand load faults with the
	// scramble signature.
	tripped := false
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		if !f.Watched || f.DuringScrub {
			t.Errorf("unexpected fault shape: watched=%v scrub=%v", f.Watched, f.DuringScrub)
		}
		if f.GroupIndex == 0 && !ecc.IsScrambleOf(f.Data, orig[0]) {
			t.Errorf("fault data %#x is not the scramble of %#x", f.Data, orig[0])
		}
		tripped = true
		// Repair so the load completes.
		return r.k.DisableWatchMemory(base, physmem.LineBytes) == nil
	})
	if got := r.load(t, base); got != 0xfeed_f00d_dead_beef {
		t.Fatalf("load after repair = %#x", got)
	}
	if !tripped {
		t.Fatal("re-armed watch never tripped")
	}
}

// TestWatchOnSwappedOutPage: arming a watch on a page that has been swapped
// out must demand-swap it back in, save the correct original data, and pin
// the page so later evictions cannot destroy the stale-check-bit state.
func TestWatchOnSwappedOutPage(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	r.store(t, base, 0xcafe_babe_0000_0001)
	r.cache.FlushAll()

	if n := r.as.SwapOutLRU(1); n != 1 {
		t.Fatalf("swapped out %d pages, want 1", n)
	}
	orig, err := r.k.WatchMemory(base, physmem.LineBytes)
	if err != nil {
		t.Fatalf("watch on swapped page: %v", err)
	}
	if orig[0] != 0xcafe_babe_0000_0001 {
		t.Fatalf("saved original %#x — swap-in lost the data", orig[0])
	}
	// The page is pinned now: the swapper must leave it alone.
	if n := r.as.SwapOutLRU(1); n != 0 {
		t.Fatalf("swapper evicted %d pinned pages", n)
	}
	// The watch is live: a load trips it, and repair restores the data.
	tripped := false
	r.k.RegisterECCFaultHandler(func(f *ECCFault) bool {
		tripped = true
		return r.k.DisableWatchMemory(base, physmem.LineBytes) == nil
	})
	if got := r.load(t, base); got != 0xcafe_babe_0000_0001 {
		t.Fatalf("load = %#x", got)
	}
	if !tripped {
		t.Fatal("watch on swapped-in page never tripped")
	}
	// Fully disarmed and unpinned: the page can swap out again.
	if n := r.as.SwapOutLRU(1); n != 1 {
		t.Fatalf("post-disarm swap out = %d pages, want 1", n)
	}
}
