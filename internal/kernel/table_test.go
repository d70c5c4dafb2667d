package kernel

import (
	"maps"
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// watchRecords returns the kernel's non-empty watch records by frame
// number.
func watchRecords(k *Kernel) map[uint64]watchPage {
	out := map[uint64]watchPage{}
	k.watches.Range(func(frame uint64, wp *watchPage) bool {
		if *wp != (watchPage{}) {
			out[frame] = *wp
		}
		return true
	})
	return out
}

// TestWatchIndexSparse pins the watch index's host footprint: a fresh
// kernel on 32 MiB of DRAM holds no leaf, watching one line allocates one,
// and unwatching it leaves the leaf allocated but all zero.
func TestWatchIndexSparse(t *testing.T) {
	r := newRig(t, 32<<20)
	if n := r.k.watches.Leaves(); n != 0 {
		t.Fatalf("fresh kernel holds %d watch-index leaves, want 0", n)
	}
	mapHeap(t, r, 2)
	if _, err := r.k.WatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if n := r.k.watches.Leaves(); n != 1 {
		t.Fatalf("one watched line allocated %d watch-index leaves, want 1", n)
	}
	if err := r.k.DisableWatchMemory(base, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if recs := watchRecords(r.k); len(recs) != 0 || r.k.watches.Leaves() != 1 {
		t.Fatalf("after unwatching: records %v, %d leaves; want none and 1", recs, r.k.watches.Leaves())
	}
}

// TestWatchTranslatesPerPage pins the per-page translation of
// WatchMemory: a 16-line region straddling two pages counts 16 simulated
// translations, exactly as sixteen per-line Translate calls would, but the
// host probes the TLB once per page.
func TestWatchTranslatesPerPage(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 2)
	va := base + vm.PageBytes - 8*physmem.LineBytes
	r.store(t, va, 1)
	r.store(t, base+vm.PageBytes, 2)
	before := r.as.Stats().Translates
	h0, m0, _ := r.as.TLBStats()
	if _, err := r.k.WatchMemory(va, 16*physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if got := r.as.Stats().Translates - before; got != 16 {
		t.Fatalf("a 16-line watch counted %d translations, want 16", got)
	}
	h1, m1, _ := r.as.TLBStats()
	if probes := h1 - h0 + m1 - m0; probes != 2 {
		t.Fatalf("a two-page watch probed the TLB %d times, want 2", probes)
	}
	if m1 != m0 {
		t.Fatalf("pinning killed the TLB entries: %d misses on pages just touched", m1-m0)
	}
}

// TestImageRestoresWatchIndex round-trips a kernel with live watches on
// two frames, one unwatched since, through CaptureImage and RestoreImage:
// every record (page, lines, direct bits) and the line count come back,
// and records armed after the capture are gone.
func TestImageRestoresWatchIndex(t *testing.T) {
	r := newRig(t, 1<<20)
	mapHeap(t, r, 3)
	for _, w := range []struct {
		va    vm.VAddr
		lines uint64
	}{{base + physmem.LineBytes, 2}, {base + vm.PageBytes - physmem.LineBytes, 3}} {
		if _, err := r.k.WatchMemory(w.va, w.lines*physmem.LineBytes); err != nil {
			t.Fatal(err)
		}
	}
	want := watchRecords(r.k)
	if len(want) != 2 {
		t.Fatalf("watches cover %d frames, want 2", len(want))
	}
	img := r.k.CaptureImage()
	if err := r.k.DisableWatchMemory(base+physmem.LineBytes, 2*physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.WatchMemory(base+2*vm.PageBytes, physmem.LineBytes); err != nil {
		t.Fatal(err)
	}
	r.k.RestoreImage(img)
	if got := watchRecords(r.k); !maps.Equal(got, want) {
		t.Fatalf("restored records %+v, want %+v", got, want)
	}
	if n := r.k.Stats().LinesWatched; n != 5 {
		t.Fatalf("LinesWatched = %d after restore, want 5", n)
	}
}
