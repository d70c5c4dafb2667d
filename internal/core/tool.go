package safemem

import (
	"cmp"
	"fmt"
	"slices"

	"safemem/internal/heap"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/memctrl"
	"safemem/internal/obsrv/flight"
	"safemem/internal/pagetab"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// Bookkeeping charges for SafeMem's own user-level work (DESIGN.md §6).
// These cover the group hash lookup, list surgery and statistics updates
// performed inside the malloc/free wrappers — everything *except* the
// ECC-watch syscalls, which charge themselves in the kernel.
const (
	costLeakAlloc     simtime.Cycles = 90
	costLeakFree      simtime.Cycles = 110
	costCheckBase     simtime.Cycles = 200
	costCheckPerGroup simtime.Cycles = 40
)

// Tool is an attached SafeMem instance.
type Tool struct {
	m     *machine.Machine
	alloc *heap.Allocator
	opts  Options

	// Leak bookkeeping (group.go): the groups by index, looked up by key
	// and listed in ⟨site, size⟩ order; the live objects by value in
	// slots, freed slots reused, looked up by user pointer.
	groups   []group
	groupIdx map[GroupKey]int32
	byKey    []int32
	objs     []object
	freeObjs []int32
	objects  map[vm.VAddr]int32

	// ECC-watch bookkeeping (SafeMem's "private memory region", watch.go):
	// the regions by value in slots, freed slots reused; the live slots in
	// arming order with swap-remove (each region knows its position); the
	// per-page line index (byPage holds a page's index in pages plus one,
	// 0 for none) and its count of watched lines; and the saved
	// original words of every live region in one store, with a spare
	// buffer to compact into.
	regions      []watchRegion
	freeRegions  []int32
	live         []int32
	pages        []linePage
	freePages    []int32
	byPage       pagetab.Table[int32]
	watchedLines int
	orig         []uint64
	origSpare    []uint64
	origDead     int

	lastCheck     simtime.Cycles
	startTime     simtime.Cycles
	savedForScrub []watchRegion
	confirm       []int32

	// shutDown is set by Shutdown; the arming gate then refuses every arm.
	shutDown bool

	// Hardware-fault degradation state (degrade.go): per-line quarantine
	// history, the machine-wide error window, and the arming-pause deadline.
	quarantine     map[vm.VAddr]quarantineEntry
	hwWindow       []windowEvent
	degradedUntil  simtime.Cycles
	degradedEvents []DegradedEvent

	reports  []BugReport
	onReport func(BugReport)
	stats    Stats

	tr      *telemetry.Tracer
	latency *telemetry.Histogram

	// The callbacks Attach registers, bound once per Tool value.
	onECC         kernel.ECCFaultHandler
	onScrubBefore func()
	onScrubAfter  func()
	onFault       memctrl.FaultObserver
	source        func(emit func(string, float64))
}

// spareKey is the machine spare slot of a released Tool.
type spareKey struct{}

// Attach wires a SafeMem tool onto machine m and allocator alloc. The
// allocator must be cache-line aligned (Section 4); with corruption
// detection enabled it must also carry one guard line of padding per side —
// use HeapOptions to construct a compatible allocator.
func Attach(m *machine.Machine, alloc *heap.Allocator, opts Options) (*Tool, error) {
	t, err := AttachWithoutHook(m, alloc, opts)
	if err != nil {
		return nil, err
	}
	alloc.AddHook(t)
	return t, nil
}

// AttachWithoutHook builds and wires the tool exactly like Attach — fault
// handler, scrub hooks, fault observer, telemetry — but does NOT register
// it as an allocation hook: the caller owns event delivery and forwards
// OnAlloc/OnFree itself. This is the attachment point for front-ends that
// filter the allocation stream, such as the GWP-ASan-style sampling tool
// (internal/sampletool), which delivers only its sampled subset.
func AttachWithoutHook(m *machine.Machine, alloc *heap.Allocator, opts Options) (*Tool, error) {
	ho := alloc.Options()
	if ho.Align != physmem.LineBytes {
		return nil, fmt.Errorf("safemem: allocator alignment %d, need cache-line alignment (%d)", ho.Align, physmem.LineBytes)
	}
	if opts.DetectCorruption && ho.PadBytes != PadLineBytes {
		return nil, fmt.Errorf("safemem: corruption detection needs %d-byte guard padding, allocator has %d", PadLineBytes, ho.PadBytes)
	}
	if opts.SLeakLifetimeFactor == 0 {
		opts.SLeakLifetimeFactor = 2.0
	}
	if opts.MaxSuspectsPerGroup == 0 {
		opts.MaxSuspectsPerGroup = 3
	}
	if opts.QuarantineThreshold == 0 {
		opts.QuarantineThreshold = 3
	}
	if opts.QuarantineBackoff == 0 {
		opts.QuarantineBackoff = simtime.FromMicroseconds(500)
	}
	if opts.DegradeErrorThreshold == 0 {
		opts.DegradeErrorThreshold = 16
	}
	if opts.DegradeWindow == 0 {
		opts.DegradeWindow = simtime.FromMicroseconds(300)
	}
	t, _ := m.TakeSpare(spareKey{}).(*Tool)
	if t == nil {
		t = allocTool()
	}
	t.reset(m, alloc, opts)
	m.Kern.RegisterECCFaultHandler(t.onECC)
	m.Kern.SetScrubHooks(t.onScrubBefore, t.onScrubAfter)
	m.Ctrl.AddFaultObserver(t.onFault)
	t.tr = m.Telemetry.Tracer()
	t.latency = m.Telemetry.Histogram("safemem", "detection_latency_cycles", telemetry.LatencyBuckets)
	m.Telemetry.RegisterSource("safemem", t.source)
	return t, nil
}

// allocTool allocates a Tool's maps and binds its callbacks.
func allocTool() *Tool {
	t := &Tool{
		groupIdx:   make(map[GroupKey]int32),
		objects:    make(map[vm.VAddr]int32),
		quarantine: make(map[vm.VAddr]quarantineEntry),
	}
	t.onECC = t.handleECCFault
	t.onScrubBefore = t.scrubBefore
	t.onScrubAfter = t.scrubAfter
	// Machine-wide error pressure: corrected single-bit events feed the
	// degradation window here. Uncorrectable events do NOT — at the
	// controller they are indistinguishable from tripped watches, so the
	// fault handler classifies them (signature check) and reports only the
	// genuine hardware ones via noteMachineError.
	t.onFault = func(_ physmem.Addr, uncorrectable bool) {
		if !uncorrectable {
			t.noteMachineError(false)
		}
	}
	t.source = t.emitTelemetry
	return t
}

// reset puts t into the state of a freshly attached tool, keeping only the
// capacity of its slices and maps and its bound callbacks.
func (t *Tool) reset(m *machine.Machine, alloc *heap.Allocator, opts Options) {
	clear(t.groupIdx)
	clear(t.objects)
	t.byPage.Clear()
	clear(t.quarantine)
	*t = Tool{
		m:     m,
		alloc: alloc,
		opts:  opts,

		groups:   t.groups[:0],
		groupIdx: t.groupIdx,
		byKey:    t.byKey[:0],
		objs:     t.objs[:0],
		freeObjs: t.freeObjs[:0],
		objects:  t.objects,

		regions:     t.regions[:0],
		freeRegions: t.freeRegions[:0],
		live:        t.live[:0],
		pages:       t.pages[:0],
		freePages:   t.freePages[:0],
		byPage:      t.byPage,
		orig:        t.orig[:0],
		origSpare:   t.origSpare[:0],

		startTime:     m.Clock.Now(),
		lastCheck:     m.Clock.Now(),
		savedForScrub: t.savedForScrub[:0],
		confirm:       t.confirm[:0],

		quarantine:     t.quarantine,
		hwWindow:       t.hwWindow[:0],
		degradedEvents: t.degradedEvents[:0],
		reports:        t.reports[:0],

		onECC:         t.onECC,
		onScrubBefore: t.onScrubBefore,
		onScrubAfter:  t.onScrubAfter,
		onFault:       t.onFault,
		source:        t.source,
	}
}

// Release ends the tool's run: the caller promises not to use t again, and
// the next Attach on the same machine reuses t's storage
// (machine.PutSpare). Results must be read (Reports, Stats) before.
func (t *Tool) Release() { t.m.PutSpare(spareKey{}, t) }

// emitTelemetry is the tool's telemetry source.
func (t *Tool) emitTelemetry(emit func(string, float64)) {
	s := t.Stats()
	emit("allocs", float64(s.Allocs))
	emit("frees", float64(s.Frees))
	emit("leak_checks", float64(s.LeakChecks))
	emit("suspects_flagged", float64(s.SuspectsFlagged))
	emit("suspects_pruned", float64(s.SuspectsPruned))
	emit("leaks_reported", float64(s.LeaksReported))
	emit("corruption_reported", float64(s.CorruptionReported))
	emit("hardware_errors", float64(s.HardwareErrors))
	emit("watched_lines", float64(s.WatchedLines))
	emit("max_watched_lines", float64(s.MaxWatchedLines))
	emit("uninit_writes", float64(s.UninitWrites))
	emit("degraded_events", float64(s.DegradedEvents))
	emit("lines_quarantined", float64(s.LinesQuarantined))
	emit("watches_rearmed", float64(s.WatchesRearmed))
	emit("rearms_skipped", float64(s.RearmsSkipped))
	emit("watches_suppressed_quarantine", float64(s.WatchesSuppressedQuarantine))
	emit("watches_suppressed_paused", float64(s.WatchesSuppressedPaused))
	emit("degrade_periods", float64(s.DegradePeriods))
}

// Options returns the tool's configuration.
func (t *Tool) Options() Options { return t.opts }

// Reports returns all bug reports so far, in detection order.
func (t *Tool) Reports() []BugReport {
	out := make([]BugReport, len(t.reports))
	copy(out, t.reports)
	return out
}

// Stats returns a copy of the activity counters.
func (t *Tool) Stats() Stats {
	s := t.stats
	s.WatchedLines = uint64(t.watchedLines)
	return s
}

// Groups returns snapshots of all memory-object groups, sorted by first
// allocation order — the input to the Figure 3 lifetime-stability study.
func (t *Tool) Groups() []GroupInfo {
	out := make([]GroupInfo, 0, len(t.groups))
	for _, gi := range t.byKey {
		g := &t.groups[gi]
		out = append(out, GroupInfo{
			Key:           g.key,
			LiveCount:     g.liveCount,
			TotalAllocs:   g.totalAllocs,
			Frees:         g.frees,
			TotalBytes:    g.totalBytes,
			MaxLifetime:   g.maxLifetime,
			StableTime:    g.stableTime,
			LastMaxChange: g.lastMaxChange,
			LastAllocTime: g.lastAllocTime,
		})
	}
	return out
}

// SetReportCallback registers a function invoked synchronously on every new
// bug report — the hook a long-running server uses to stream findings to
// its log instead of polling Reports().
func (t *Tool) SetReportCallback(fn func(BugReport)) { t.onReport = fn }

func (t *Tool) report(r BugReport) {
	r.Time = t.m.Clock.Now()
	t.reports = append(t.reports, r)
	if r.Kind.IsLeak() {
		t.stats.LeaksReported++
	} else {
		t.stats.CorruptionReported++
	}
	if r.Latency > 0 {
		t.latency.ObserveCycles(r.Latency)
	}
	if t.tr.Enabled() {
		t.tr.Instant("safemem", "report:"+r.Kind.String(),
			telemetry.KV("addr", uint64(r.Addr)),
			telemetry.KV("latency_cycles", uint64(r.Latency)))
	}
	flight.Emit(flight.KindBugReport, "safemem", r.Time, r.Kind.String(),
		flight.F("addr", uint64(r.Addr)),
		flight.F("site", r.Site),
		flight.F("latency_cycles", uint64(r.Latency)))
	if t.onReport != nil {
		t.onReport(r)
	}
	if t.opts.StopOnBug && !r.Kind.IsLeak() {
		machine.Abort("safemem: %s", r)
	}
}

// Shutdown runs the program-exit pass: any leak suspect that is still
// ECC-watched and has aged past the confirmation window is reported (the
// program is ending — no future access can exonerate it), and every watch
// is disabled so memory is left in its natural state. Further allocator
// activity arms no watch (the arming gate refuses it), so it is no longer
// monitored for corruption. Returns the newly produced reports.
func (t *Tool) Shutdown() []BugReport {
	sp := t.tr.Begin("safemem", "shutdown")
	defer sp.End()
	t.shutDown = true
	before := len(t.reports)
	now := t.m.Clock.Now()
	for _, slot := range t.sortedSuspectRegions(now) {
		obj := &t.objs[t.regions[slot].obj]
		t.reportLeak(&t.groups[obj.group], obj)
	}
	t.savedForScrub = t.unwatchAll(t.savedForScrub[:0])[:0]
	out := make([]BugReport, len(t.reports)-before)
	copy(out, t.reports[before:])
	return out
}

// OnAlloc implements heap.Hook: the malloc/calloc/realloc wrapper
// (Section 3.2.1 for leak bookkeeping, Section 4 for corruption watches).
func (t *Tool) OnAlloc(b *heap.Block) {
	t.stats.Allocs++
	now := t.m.Clock.Now()

	// The allocator may have carved this block out of watched freed space;
	// reallocation disables those watches (Section 4).
	t.unwatchOverlapping(b.FullAddr, b.FullSize)

	if t.opts.DetectLeaks {
		t.m.Clock.Advance(costLeakAlloc)
		gi := t.groupOf(GroupKey{Size: b.Size, Site: b.Site}, now)
		var oi int32
		if n := len(t.freeObjs); n > 0 {
			oi, t.freeObjs = t.freeObjs[n-1], t.freeObjs[:n-1]
		} else {
			oi = int32(len(t.objs))
			t.objs = append(t.objs, object{})
		}
		t.objs[oi] = object{block: *b, group: gi, allocTime: now, suspect: -1}
		g := &t.groups[gi]
		t.appendObject(g, oi)
		g.lastAllocTime = now
		g.totalBytes += b.Size
		g.totalAllocs++
		t.objects[b.Addr] = oi
	}

	if t.opts.DetectCorruption {
		t.arm(b.PadBefore(), PadLineBytes, watchPadBefore, b, -1, "arm-pad-before")
		t.arm(b.PadAfter(), PadLineBytes, watchPadAfter, b, -1, "arm-pad-after")
	}

	if t.opts.DetectUninitRead && !t.lineWatched(b.Addr, b.RoundedSize) {
		t.arm(b.Addr, b.RoundedSize, watchUninit, b, -1, "arm-uninit")
	}

	t.maybeCheckLeaks()
}

// OnFree implements heap.Hook: the free wrapper.
func (t *Tool) OnFree(b *heap.Block) {
	t.stats.Frees++
	now := t.m.Clock.Now()

	if t.opts.DetectLeaks {
		t.m.Clock.Advance(costLeakFree)
		if oi, ok := t.objects[b.Addr]; ok {
			if s := t.objs[oi].suspect; s >= 0 {
				// Freeing a watched suspect exonerates it.
				t.stats.SuspectsPruned++
				t.unwatchOrDegrade(&t.regions[s], false, "unwatch-on-free")
			}
			obj := &t.objs[oi]
			g := &t.groups[obj.group]
			t.removeObject(g, oi)
			g.totalBytes -= b.Size
			g.recordDealloc(now, now-obj.allocTime, t.opts.LifetimeTolerance)
			delete(t.objects, b.Addr)
			t.freeObjs = append(t.freeObjs, oi)
		}
	}

	// Disable any remaining watches inside the block's extent (guard pads,
	// uninit watch), then watch the whole freed extent (Section 4).
	t.unwatchOverlapping(b.FullAddr, b.FullSize)
	if t.opts.DetectCorruption {
		t.arm(b.FullAddr, b.FullSize, watchFreed, b, -1, "arm-freed")
	}

	t.maybeCheckLeaks()
}

// scrubBefore / scrubAfter implement the scrub-coordination protocol
// (Section 2.2.2): all watches are temporarily disabled while the memory
// controller scrubs, then re-armed through the arming gate. No program op
// runs in between, so no saved region goes stale.
func (t *Tool) scrubBefore() { t.savedForScrub = t.unwatchAll(t.savedForScrub[:0]) }
func (t *Tool) scrubAfter() {
	for i := range t.savedForScrub {
		t.rearm(&t.savedForScrub[i], "rewatch-after-scrub")
	}
	t.savedForScrub = t.savedForScrub[:0]
}

// groupOf returns the index of the group with the given key, creating it
// (born at now) and inserting it into the ⟨site, size⟩ order.
func (t *Tool) groupOf(key GroupKey, now simtime.Cycles) int32 {
	if gi, ok := t.groupIdx[key]; ok {
		return gi
	}
	gi := int32(len(t.groups))
	t.groups = append(t.groups, group{key: key, head: -1, tail: -1, lastUpdate: now, lastMaxChange: now})
	t.groupIdx[key] = gi
	at, _ := slices.BinarySearchFunc(t.byKey, key, func(i int32, k GroupKey) int {
		return cmpKey(t.groups[i].key, k)
	})
	t.byKey = slices.Insert(t.byKey, at, gi)
	return gi
}

// cmpKey orders group keys by site, then size.
func cmpKey(a, b GroupKey) int {
	if c := cmp.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	return cmp.Compare(a.Size, b.Size)
}
