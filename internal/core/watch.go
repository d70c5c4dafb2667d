package safemem

import (
	"fmt"
	"slices"

	"safemem/internal/heap"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// watchKind distinguishes why a region is ECC-watched.
type watchKind int

const (
	// watchPadBefore / watchPadAfter guard the two ends of a live buffer
	// (buffer-overflow detection, Section 4).
	watchPadBefore watchKind = iota
	watchPadAfter
	// watchFreed guards an entire freed buffer until reallocation.
	watchFreed
	// watchLeakSuspect guards a leak suspect for false-positive pruning
	// (Section 3.2.3).
	watchLeakSuspect
	// watchUninit guards a freshly allocated, never-written buffer
	// (the Section 4 extension).
	watchUninit
)

func (k watchKind) String() string {
	switch k {
	case watchPadBefore:
		return "pad-before"
	case watchPadAfter:
		return "pad-after"
	case watchFreed:
		return "freed"
	case watchLeakSuspect:
		return "leak-suspect"
	case watchUninit:
		return "uninit"
	default:
		return fmt.Sprintf("watchKind(%d)", int(k))
	}
}

// watchRegion is SafeMem's private record of one ECC-watched region: its
// extent, why it is watched, the buffer it belongs to, and — crucially —
// the original data words returned by WatchMemory, which let the fault
// handler tell access faults from hardware errors (Section 2.2.2).
type watchRegion struct {
	base vm.VAddr
	size uint64
	kind watchKind
	// original holds 8 saved words per line. For a one-line region it
	// points into inline, so the region takes a single allocation.
	original []uint64
	inline   [physmem.GroupsPerLine]uint64
	// block is the associated buffer (nil for none).
	block *heap.Block
	// obj is the associated leak-suspect object (watchLeakSuspect only).
	obj *object
	// watchedAt is when monitoring began.
	watchedAt simtime.Cycles
	// slot is the region's index in Tool.regions, -1 once removed.
	slot int
}

func (r *watchRegion) lines() int { return int(r.size / physmem.LineBytes) }

// lineIndex returns which line of the region vline is.
func (r *watchRegion) lineIndex(vline vm.VAddr) int {
	return int(uint64(vline-r.base) / physmem.LineBytes)
}

// originalWord returns the saved word for the given line and ECC group.
func (r *watchRegion) originalWord(vline vm.VAddr, groupIndex int) uint64 {
	return r.original[r.lineIndex(vline)*physmem.GroupsPerLine+groupIndex]
}

// watch registers [base, base+size) with the kernel and records the region.
// Regions must not overlap existing watches; callers check via lineWatched.
func (t *Tool) watch(base vm.VAddr, size uint64, kind watchKind, blk *heap.Block, obj *object) (*watchRegion, error) {
	r := &watchRegion{
		base:  base,
		size:  size,
		kind:  kind,
		block: blk,
		obj:   obj,
	}
	orig, err := t.m.Kern.AppendWatchMemory(r.inline[:0], base, size)
	if err != nil {
		return nil, err
	}
	r.original = orig
	r.watchedAt = t.m.Clock.Now()
	for line := base; line < base+vm.VAddr(size); line += physmem.LineBytes {
		t.byLine[line] = r
	}
	r.slot = len(t.regions)
	t.regions = append(t.regions, r)
	if n := uint64(len(t.byLine)); n > t.stats.MaxWatchedLines {
		t.stats.MaxWatchedLines = n
	}
	return r, nil
}

// unwatch removes the region. When fromSaved is true the memory is restored
// from SafeMem's private copy (hardware-error repair); otherwise the kernel
// un-scrambles in place.
func (t *Tool) unwatch(r *watchRegion, fromSaved bool) error {
	var err error
	if fromSaved {
		err = t.m.Kern.DisableWatchMemoryWithData(r.base, r.size, r.original)
	} else {
		err = t.m.Kern.DisableWatchMemory(r.base, r.size)
	}
	if err != nil {
		return err
	}
	for line := r.base; line < r.base+vm.VAddr(r.size); line += physmem.LineBytes {
		delete(t.byLine, line)
	}
	t.removeRegion(r)
	return nil
}

// removeRegion takes r out of the region list (a no-op once removed) and
// drops a leak suspect's back-pointer to it.
func (t *Tool) removeRegion(r *watchRegion) {
	if r.slot >= 0 {
		last := t.regions[len(t.regions)-1]
		t.regions[r.slot], last.slot = last, r.slot
		t.regions[len(t.regions)-1] = nil
		t.regions = t.regions[:len(t.regions)-1]
		r.slot = -1
	}
	if r.obj != nil && r.obj.suspect == r {
		r.obj.suspect = nil
	}
}

// lineWatched reports whether any line of [base, base+size) is watched.
func (t *Tool) lineWatched(base vm.VAddr, size uint64) bool {
	for line := base.LineAddr(); line < base+vm.VAddr(size); line += physmem.LineBytes {
		if _, ok := t.byLine[line]; ok {
			return true
		}
	}
	return false
}

// unwatchOverlapping removes every watch region that intersects
// [base, base+size) — the reallocation path: when the allocator reuses a
// freed extent, its freed-buffer watch must be disabled (Section 4).
// Failures degrade (with the bookkeeping dropped) rather than stopping the
// sweep: the remaining regions must still be disabled. Regions never
// overlap, so skipping to the end of each one visits every region once.
func (t *Tool) unwatchOverlapping(base vm.VAddr, size uint64) {
	end := base + vm.VAddr(size)
	for line := base.LineAddr(); line < end; {
		r, ok := t.byLine[line]
		if !ok {
			line += physmem.LineBytes
			continue
		}
		line = r.base + vm.VAddr(r.size)
		t.unwatchOrDegrade(r, false, "unwatch-overlapping")
	}
}

// UnwatchRange disables every watch region intersecting [base, base+size).
// Exported for allocation front-ends that filter the event stream
// (internal/sampletool): when the allocator hands out an extent the
// front-end does not forward — one that may have been carved from a
// watched freed buffer — the stale watch must still be disarmed or the new
// tenant's ordinary accesses would trip it.
func (t *Tool) UnwatchRange(base vm.VAddr, size uint64) int {
	before := len(t.regions)
	t.unwatchOverlapping(base, size)
	return before - len(t.regions)
}

// Watched reports whether any line of [base, base+size) is currently
// ECC-watched. Exported for front-end invariant checks and fuzz harnesses.
func (t *Tool) Watched(base vm.VAddr, size uint64) bool {
	return t.lineWatched(base, size)
}

// CheckWatchInvariants cross-checks the two watch indices — the region list
// and the per-line map — and returns an error on any inconsistency: a
// region out of its slot, a region line that maps to a different region (a
// double-watched line), or an orphaned line entry. Fuzz harnesses call this
// after every operation.
func (t *Tool) CheckWatchInvariants() error {
	lines := 0
	for i, r := range t.regions {
		if r.slot != i {
			return fmt.Errorf("watch invariant: region [%#x,+%d) at index %d records slot %d", uint64(r.base), r.size, i, r.slot)
		}
		for line := r.base; line < r.base+vm.VAddr(r.size); line += physmem.LineBytes {
			got, ok := t.byLine[line]
			if !ok {
				return fmt.Errorf("watch invariant: region [%#x,+%d) line %#x missing from line index", uint64(r.base), r.size, uint64(line))
			}
			if got != r {
				return fmt.Errorf("watch invariant: line %#x double-watched (region [%#x,+%d) vs [%#x,+%d))",
					uint64(line), uint64(r.base), r.size, uint64(got.base), got.size)
			}
			lines++
		}
	}
	if lines != len(t.byLine) {
		return fmt.Errorf("watch invariant: %d lines indexed, regions cover %d", len(t.byLine), lines)
	}
	return nil
}

// unwatchAll removes every active watch (scrub coordination). It returns
// the removed regions so rewatchAll can restore them.
func (t *Tool) unwatchAll() []*watchRegion {
	out := slices.Clone(t.regions)
	for _, r := range out {
		t.unwatchOrDegrade(r, false, "unwatch-for-scrub")
	}
	return out
}

// rewatchAll re-arms the given regions after a scrub pass, preserving their
// kinds and associations. Quarantined lines stay unwatched, and corruption
// watches are not re-armed while arming is degraded — the same policy that
// governs fresh arms.
func (t *Tool) rewatchAll(saved []*watchRegion) {
	for _, old := range saved {
		if t.lineQuarantined(old.base, old.size) {
			t.stats.RearmsSkipped++
			continue
		}
		if old.kind != watchLeakSuspect && t.corruptionDegraded() {
			t.stats.WatchesSuppressed++
			continue
		}
		r, err := t.watch(old.base, old.size, old.kind, old.block, old.obj)
		if err != nil {
			t.degrade("rewatch-after-scrub", old.base, err.Error())
			continue
		}
		r.watchedAt = old.watchedAt // preserve leak-confirmation clocks
		if old.obj != nil {
			old.obj.suspect = r
		}
	}
}
