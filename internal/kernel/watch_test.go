package kernel

import (
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// TestWatchFailedPinLeavesNoPins is the regression test for a failed
// WatchMemory leaking page pins: on a two-frame DRAM the third page cannot
// be swapped in once the first two are pinned, and the pins already taken
// must be released.
func TestWatchFailedPinLeavesNoPins(t *testing.T) {
	r := newRig(t, 2*vm.PageBytes)
	const region = vm.VAddr(0x100000)
	if err := r.k.MapPages(region, 2); err != nil {
		t.Fatal(err)
	}
	r.store(t, region, 0x1111)
	r.store(t, region+vm.PageBytes, 0x2222)
	if n := r.as.SwapOutLRU(2); n != 2 {
		t.Fatalf("swapped out %d pages, want 2", n)
	}
	if err := r.k.MapPages(region+2*vm.PageBytes, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.WatchMemory(region, 3*vm.PageBytes); err == nil {
		t.Fatal("watch needing three resident frames on a two-frame DRAM succeeded")
	}
	for pg := region; pg < region+3*vm.PageBytes; pg += vm.PageBytes {
		if n := r.as.Pinned(pg); n != 0 {
			t.Errorf("page %#x left with %d pins", uint64(pg), n)
		}
	}
	if n := r.k.Stats().LinesWatched; n != 0 {
		t.Fatalf("failed watch left %d lines watched", n)
	}

	// With the pins released the first two pages can still be watched, and
	// the saved originals come from the frames the pages finally sit on.
	orig, err := r.k.WatchMemory(region, 2*vm.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 0x1111 || orig[vm.PageBytes/8] != 0x2222 {
		t.Fatalf("saved originals %#x/%#x, want 0x1111/0x2222", orig[0], orig[vm.PageBytes/8])
	}
}

// TestWatchUnwatchNoAllocs pins the steady-state watch path: with a reused
// destination, a WatchMemory/DisableWatchMemory pair allocates nothing on
// either arming backend, for one line and for sixteen lines straddling a
// page boundary.
func TestWatchUnwatchNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		direct bool
		va     vm.VAddr
		lines  uint64
	}{
		{"commodity/1", false, base, 1},
		{"commodity/16", false, base + vm.PageBytes - 8*physmem.LineBytes, 16},
		{"direct/1", true, base, 1},
		{"direct/16", true, base + vm.PageBytes - 8*physmem.LineBytes, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1<<20)
			if tc.direct {
				r.ctrl.EnableDirectECCAccess()
			}
			mapHeap(t, r, 2)
			size := tc.lines * physmem.LineBytes
			var buf []uint64
			if avg := testing.AllocsPerRun(100, func() {
				var err error
				if buf, err = r.k.AppendWatchMemory(buf[:0], tc.va, size); err != nil {
					t.Fatal(err)
				}
				if err := r.k.DisableWatchMemory(tc.va, size); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("watch/unwatch pair allocates %.1f objects, want 0", avg)
			}
		})
	}
}

// TestDisableWithDataMidPageRegion restores a region that starts mid-page
// and crosses into the next page from the saved copy: every line gets its
// own original words back.
func TestDisableWithDataMidPageRegion(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 2)
	start := base + vm.PageBytes - 3*physmem.LineBytes
	const lines = 5
	for i := vm.VAddr(0); i < lines; i++ {
		r.store(t, start+i*physmem.LineBytes, 0x100+uint64(i))
	}
	orig, err := r.k.WatchMemory(start, lines*physmem.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every watched line past un-scrambling: only the saved copy
	// can repair it now.
	for i := vm.VAddr(0); i < lines; i++ {
		pa, _ := r.as.Translate(start+i*physmem.LineBytes, false)
		data, check := r.ctrl.Memory().ReadGroupRaw(pa)
		r.ctrl.Memory().WriteGroupRaw(pa, data^0xff00, check)
	}
	if err := r.k.DisableWatchMemoryWithData(start, lines*physmem.LineBytes, orig); err != nil {
		t.Fatal(err)
	}
	for i := vm.VAddr(0); i < lines; i++ {
		if got := r.load(t, start+i*physmem.LineBytes); got != 0x100+uint64(i) {
			t.Errorf("line %d = %#x, want %#x", i, got, 0x100+uint64(i))
		}
	}
	if r.k.Stats().LinesWatched != 0 || r.as.Pinned(base) != 0 || r.as.Pinned(base+vm.PageBytes) != 0 {
		t.Fatal("restore left watches or pins behind")
	}
}

// TestImageRestoresWatchIndex checks the watch index round-trips through
// CaptureImage/RestoreImage, line count included.
func TestImageRestoresWatchIndex(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 1)
	if _, err := r.k.WatchMemory(base+physmem.LineBytes, 2*physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	img := r.k.CaptureImage()
	if err := r.k.DisableWatchMemory(base+physmem.LineBytes, 2*physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.WatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	r.k.RestoreImage(img)
	if r.k.Watched(base) || !r.k.Watched(base+physmem.LineBytes) || !r.k.Watched(base+2*physmem.LineBytes) {
		t.Fatal("restored index does not match the captured watches")
	}
	if n := r.k.Stats().LinesWatched; n != 2 {
		t.Fatalf("LinesWatched = %d after restore, want 2", n)
	}
}
