package safemem

import (
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// TestUnwatchOverlappingDisarmsEachRegionOnce pins the reallocation sweep:
// every region intersecting the range is disabled by exactly one kernel
// call — adjacent regions, a region that starts before the range, and a
// region whose disable fails and degrades — and regions outside the range
// stay armed.
func TestUnwatchOverlappingDisarmsEachRegionOnce(t *testing.T) {
	r := newTool(t, DefaultOptions())
	// A live buffer's interior is mapped and unwatched: room to lay out
	// hand-made regions. Its own guard pads sit outside [p, p+1024).
	p := r.malloc(t, 1024)
	const L = physmem.LineBytes
	watch := func(off, lines uint64) *watchRegion {
		t.Helper()
		reg, err := r.tool.watch(p+vm.VAddr(off), lines*L, watchFreed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	before := watch(0, 2)     // starts before the swept range
	adjacent := watch(2*L, 1) // abuts before
	broken := watch(3*L, 1)   // its kernel watch vanishes; disable fails
	spaced := watch(5*L, 2)   // after a gap
	outside := watch(8*L, 2)  // past the range's end
	// Disarm broken behind the tool's back, so the tool's own disable
	// finds the line unwatched and must degrade instead of stopping.
	if err := r.m.Kern.DisableWatchMemory(broken.base, broken.size); err != nil {
		t.Fatal(err)
	}

	disables := r.m.Kern.Stats().DisableCalls
	degraded := r.tool.Stats().DegradedEvents
	r.tool.unwatchOverlapping(p+L, 6*L) // lines 1..6: all but outside

	if got := r.m.Kern.Stats().DisableCalls - disables; got != 4 {
		t.Fatalf("kernel disable calls = %d, want 4 (one per overlapped region)", got)
	}
	if got := r.tool.Stats().DegradedEvents - degraded; got != 1 {
		t.Fatalf("degraded events = %d, want 1 (the broken region)", got)
	}
	for _, reg := range []*watchRegion{before, adjacent, broken, spaced} {
		if r.tool.Watched(reg.base, reg.size) || r.m.Kern.Watched(reg.base) {
			t.Errorf("region at +%d still watched", reg.base-p)
		}
		if reg.slot != -1 {
			t.Errorf("region at +%d still listed (slot %d)", reg.base-p, reg.slot)
		}
	}
	if !r.tool.Watched(outside.base, outside.size) || !r.m.Kern.Watched(outside.base) {
		t.Error("region past the range was disarmed")
	}
	if err := r.tool.CheckWatchInvariants(); err != nil {
		t.Fatal(err)
	}

	// The region list stays consistent through further removals.
	r.tool.unwatchOverlapping(p, 1024)
	if !r.tool.Watched(p-L, L) {
		t.Error("the buffer's leading guard pad was disarmed")
	}
	if err := r.tool.CheckWatchInvariants(); err != nil {
		t.Fatal(err)
	}
}
