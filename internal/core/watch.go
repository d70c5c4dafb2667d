package safemem

import (
	"fmt"
	"math/bits"

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
// where the original data words returned by WatchMemory are kept, which let
// the fault handler tell access faults from hardware errors (Section
// 2.2.2). Regions are stored by value in Tool.regions and named by slot.
type watchRegion struct {
	base vm.VAddr
	size uint64
	kind watchKind
	// block is a copy of the associated buffer (zero for none): the
	// allocator reuses a freed block's storage.
	block heap.Block
	// obj is the object slot of the associated leak suspect
	// (watchLeakSuspect only), -1 for none.
	obj int32
	// watchedAt is when monitoring began.
	watchedAt simtime.Cycles
	// orig is the offset in Tool.orig of the saved words, 8 per line.
	orig int
	// slot is the region's index in Tool.regions; pos is its index in
	// Tool.live, -1 once removed.
	slot, pos int32
}

// linesPerPage is the number of lines on one virtual page.
const linesPerPage = vm.PageBytes / physmem.LineBytes

// linePage is the per-line watch index of one virtual page, the user-level
// counterpart of the kernel's frame-keyed record: bit i of lines is set
// while line i of the page is watched, and region[i] is then the slot of
// the region watching it.
type linePage struct {
	lines  uint64
	region [linesPerPage]int32
}

func (r *watchRegion) lines() int { return int(r.size / physmem.LineBytes) }

// lineInPage returns the index of the line containing va within its page.
func lineInPage(va vm.VAddr) uint { return uint(va.PageOffset() / physmem.LineBytes) }

// original returns the saved words of r, 8 per line.
func (t *Tool) original(r *watchRegion) []uint64 {
	return t.orig[r.orig : r.orig+r.lines()*physmem.GroupsPerLine]
}

// originalWord returns the saved word for the given line and ECC group.
func (t *Tool) originalWord(r *watchRegion, vline vm.VAddr, groupIndex int) uint64 {
	line := int(uint64(vline-r.base) / physmem.LineBytes)
	return t.orig[r.orig+line*physmem.GroupsPerLine+groupIndex]
}

// reserveOriginals makes room for n more saved words. When the store is
// full and at least half of it belongs to removed regions, the live
// regions' words are compacted into the spare buffer, which becomes the
// store; otherwise the append in watch grows it.
func (t *Tool) reserveOriginals(n int) {
	if len(t.orig)+n <= cap(t.orig) || 2*t.origDead < len(t.orig) {
		return
	}
	dst := t.origSpare[:0]
	for _, slot := range t.live {
		r := &t.regions[slot]
		at := len(dst)
		dst = append(dst, t.original(r)...)
		r.orig = at
	}
	t.origSpare, t.orig, t.origDead = t.orig[:0], dst, 0
}

// pageNumber returns the line-index slot of the page containing va.
func pageNumber(va vm.VAddr) uint64 { return uint64(va) / vm.PageBytes }

// linePageAt returns the line-index record of the page containing va, nil
// when none of its lines is watched.
func (t *Tool) linePageAt(va vm.VAddr) *linePage {
	if pi := t.byPage.Get(pageNumber(va)); pi != 0 {
		return &t.pages[pi-1]
	}
	return nil
}

// regionAt returns the slot of the region watching the line at vline.
func (t *Tool) regionAt(vline vm.VAddr) (int32, bool) {
	p := t.linePageAt(vline)
	if p == nil {
		return 0, false
	}
	i := lineInPage(vline)
	if p.lines&(1<<i) == 0 {
		return 0, false
	}
	return p.region[i], true
}

// nextWatched returns the slot of the region watching the lowest watched
// line in [line, end), both line aligned.
func (t *Tool) nextWatched(line, end vm.VAddr) (int32, bool) {
	for pg := line.PageAddr(); pg < end; pg += vm.PageBytes {
		p := t.linePageAt(pg)
		if p == nil {
			continue
		}
		lo, hi := max(line, pg), min(end, pg+vm.PageBytes)
		n := uint(hi-lo) / physmem.LineBytes
		mask := (uint64(1)<<n - 1) << lineInPage(lo) // n == 64: 1<<64 is 0
		if m := p.lines & mask; m != 0 {
			return p.region[bits.TrailingZeros64(m)], true
		}
	}
	return 0, false
}

// lineEnd returns the end of [base, base+size) rounded up to a line.
func lineEnd(base vm.VAddr, size uint64) vm.VAddr {
	return (base + vm.VAddr(size) + physmem.LineBytes - 1).LineAddr()
}

// indexLines records slot as the watcher of every line of [base, end).
func (t *Tool) indexLines(base, end vm.VAddr, slot int32) {
	var p *linePage
	for line := base; line < end; line += physmem.LineBytes {
		if p == nil || line.PageOffset() == 0 {
			p = t.page(line.PageAddr())
		}
		i := lineInPage(line)
		if p.lines&(1<<i) == 0 {
			p.lines |= 1 << i
			t.watchedLines++
		}
		p.region[i] = slot
	}
}

// page returns the line-index record of the page at pg, creating it.
func (t *Tool) page(pg vm.VAddr) *linePage {
	slot := t.byPage.Slot(pageNumber(pg))
	if *slot == 0 {
		var pi int32
		if n := len(t.freePages); n > 0 {
			pi, t.freePages = t.freePages[n-1], t.freePages[:n-1]
		} else {
			pi = int32(len(t.pages))
			t.pages = append(t.pages, linePage{})
		}
		*slot = pi + 1
	}
	return &t.pages[*slot-1]
}

// unindexLines drops every line of r that r still watches from the line
// index.
func (t *Tool) unindexLines(r *watchRegion) {
	end := r.base + vm.VAddr(r.size)
	for pg := r.base.PageAddr(); pg < end; pg += vm.PageBytes {
		slot := t.byPage.At(pageNumber(pg))
		if slot == nil || *slot == 0 {
			continue
		}
		pi := *slot - 1
		p := &t.pages[pi]
		for line := max(r.base, pg); line < min(end, pg+vm.PageBytes); line += physmem.LineBytes {
			if i := lineInPage(line); p.lines&(1<<i) != 0 && p.region[i] == r.slot {
				p.lines &^= 1 << i
				t.watchedLines--
			}
		}
		if p.lines == 0 {
			*slot = 0
			t.freePages = append(t.freePages, pi)
		}
	}
}

// watch registers [base, base+size) with the kernel and records the region,
// returning its slot. Regions must not overlap existing watches; callers
// check via lineWatched. blk (nil for none) is copied.
func (t *Tool) watch(base vm.VAddr, size uint64, kind watchKind, blk *heap.Block, obj int32) (int32, error) {
	t.reserveOriginals(int(size/physmem.LineBytes) * physmem.GroupsPerLine)
	at := len(t.orig)
	orig, err := t.m.Kern.AppendWatchMemory(t.orig, base, size)
	if err != nil {
		return -1, err
	}
	t.orig = orig
	var slot int32
	if n := len(t.freeRegions); n > 0 {
		slot, t.freeRegions = t.freeRegions[n-1], t.freeRegions[:n-1]
	} else {
		slot = int32(len(t.regions))
		t.regions = append(t.regions, watchRegion{})
	}
	r := &t.regions[slot]
	*r = watchRegion{
		base:      base,
		size:      size,
		kind:      kind,
		obj:       obj,
		watchedAt: t.m.Clock.Now(),
		orig:      at,
		slot:      slot,
		pos:       int32(len(t.live)),
	}
	if blk != nil {
		r.block = *blk
	}
	t.live = append(t.live, slot)
	t.indexLines(base, base+vm.VAddr(size), slot)
	if n := uint64(t.watchedLines); n > t.stats.MaxWatchedLines {
		t.stats.MaxWatchedLines = n
	}
	return slot, nil
}

// unwatch removes the region. When fromSaved is true the memory is restored
// from SafeMem's private copy (hardware-error repair); otherwise the kernel
// un-scrambles in place.
func (t *Tool) unwatch(r *watchRegion, fromSaved bool) error {
	var err error
	if fromSaved {
		err = t.m.Kern.DisableWatchMemoryWithData(r.base, r.size, t.original(r))
	} else {
		err = t.m.Kern.DisableWatchMemory(r.base, r.size)
	}
	if err != nil {
		return err
	}
	t.unindexLines(r)
	t.removeRegion(r)
	return nil
}

// removeRegion takes r out of the live list and frees its slot and saved
// words (a no-op once removed), and drops a leak suspect's back-reference
// to it. The record stays readable until the next watch reuses the slot.
func (t *Tool) removeRegion(r *watchRegion) {
	if r.pos >= 0 {
		last := t.live[len(t.live)-1]
		t.live[r.pos] = last
		t.regions[last].pos = r.pos
		t.live = t.live[:len(t.live)-1]
		r.pos = -1
		t.freeRegions = append(t.freeRegions, r.slot)
		t.origDead += r.lines() * physmem.GroupsPerLine
		if len(t.live) == 0 {
			t.orig, t.origDead = t.orig[:0], 0
		}
	}
	if r.obj >= 0 && t.objs[r.obj].suspect == r.slot {
		t.objs[r.obj].suspect = -1
	}
}

// lineWatched reports whether any line of [base, base+size) is watched.
func (t *Tool) lineWatched(base vm.VAddr, size uint64) bool {
	_, ok := t.nextWatched(base.LineAddr(), lineEnd(base, size))
	return ok
}

// unwatchOverlapping removes every watch region that intersects
// [base, base+size) — the reallocation path: when the allocator reuses a
// freed extent, its freed-buffer watch must be disabled (Section 4).
// Failures degrade (with the bookkeeping dropped) rather than stopping the
// sweep: the remaining regions must still be disabled. Regions never
// overlap, so resuming at the end of each one visits every region once.
func (t *Tool) unwatchOverlapping(base vm.VAddr, size uint64) {
	end := lineEnd(base, size)
	for line := base.LineAddr(); line < end; {
		slot, ok := t.nextWatched(line, end)
		if !ok {
			return
		}
		r := &t.regions[slot]
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
	before := len(t.live)
	t.unwatchOverlapping(base, size)
	return before - len(t.live)
}

// Watched reports whether any line of [base, base+size) is currently
// ECC-watched. Exported for front-end invariant checks and fuzz harnesses.
func (t *Tool) Watched(base vm.VAddr, size uint64) bool {
	return t.lineWatched(base, size)
}

// CheckWatchInvariants cross-checks the two watch indices — the region list
// and the per-line index — and returns an error on any inconsistency: a
// region out of its list position, a region line that maps to a different
// region (a double-watched line), or an orphaned line entry. Fuzz harnesses
// call this after every operation.
func (t *Tool) CheckWatchInvariants() error {
	lines := 0
	for i, slot := range t.live {
		r := &t.regions[slot]
		if r.slot != slot || int(r.pos) != i {
			return fmt.Errorf("watch invariant: region [%#x,+%d) at list index %d records slot %d, index %d", uint64(r.base), r.size, i, r.slot, r.pos)
		}
		for line := r.base; line < r.base+vm.VAddr(r.size); line += physmem.LineBytes {
			got, ok := t.regionAt(line)
			if !ok {
				return fmt.Errorf("watch invariant: region [%#x,+%d) line %#x missing from line index", uint64(r.base), r.size, uint64(line))
			}
			if got != slot {
				g := &t.regions[got]
				return fmt.Errorf("watch invariant: line %#x double-watched (region [%#x,+%d) vs [%#x,+%d))",
					uint64(line), uint64(r.base), r.size, uint64(g.base), g.size)
			}
			lines++
		}
	}
	// A freed page record has no lines, so summing every record counts
	// the indexed lines.
	indexed := 0
	for i := range t.pages {
		indexed += bits.OnesCount64(t.pages[i].lines)
	}
	if lines != indexed || indexed != t.watchedLines {
		return fmt.Errorf("watch invariant: %d lines indexed (count %d), regions cover %d", indexed, t.watchedLines, lines)
	}
	return nil
}

// unwatchAll removes every active watch (scrub coordination). It appends
// copies of the removed regions to dst, in list order, so scrubAfter can
// re-arm them.
func (t *Tool) unwatchAll(dst []watchRegion) []watchRegion {
	first := len(dst)
	for _, slot := range t.live {
		dst = append(dst, t.regions[slot])
	}
	for i := first; i < len(dst); i++ {
		t.unwatchOrDegrade(&t.regions[dst[i].slot], false, "unwatch-for-scrub")
	}
	return dst
}
