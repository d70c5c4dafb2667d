package safemem

import (
	"fmt"
	"sort"

	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/obsrv/flight"
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

	groups  map[GroupKey]*group
	objects map[vm.VAddr]*object // by user pointer

	// ECC-watch bookkeeping (SafeMem's "private memory region"): the
	// live regions, in no particular order (each knows its slot), and the
	// per-line index.
	regions []*watchRegion
	byLine  map[vm.VAddr]*watchRegion

	lastCheck     simtime.Cycles
	startTime     simtime.Cycles
	savedForScrub []*watchRegion

	// Hardware-fault degradation state (degrade.go): per-line quarantine
	// history, the machine-wide error window, and the arming-pause deadline.
	quarantine     map[vm.VAddr]*quarantineEntry
	hwWindow       []windowEvent
	degradedUntil  simtime.Cycles
	degradedEvents []DegradedEvent

	reports  []BugReport
	onReport func(BugReport)
	stats    Stats

	tr      *telemetry.Tracer
	latency *telemetry.Histogram
}

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
	t := &Tool{
		m:          m,
		alloc:      alloc,
		opts:       opts,
		groups:     make(map[GroupKey]*group),
		objects:    make(map[vm.VAddr]*object),
		byLine:     make(map[vm.VAddr]*watchRegion),
		quarantine: make(map[vm.VAddr]*quarantineEntry),
		startTime:  m.Clock.Now(),
		lastCheck:  m.Clock.Now(),
	}
	m.Kern.RegisterECCFaultHandler(t.handleECCFault)
	m.Kern.SetScrubHooks(t.scrubBefore, t.scrubAfter)
	// Machine-wide error pressure: corrected single-bit events feed the
	// degradation window here. Uncorrectable events do NOT — at the
	// controller they are indistinguishable from tripped watches, so the
	// fault handler classifies them (signature check) and reports only the
	// genuine hardware ones via noteMachineError.
	m.Ctrl.AddFaultObserver(func(_ physmem.Addr, uncorrectable bool) {
		if !uncorrectable {
			t.noteMachineError(false)
		}
	})
	t.tr = m.Telemetry.Tracer()
	t.latency = m.Telemetry.Histogram("safemem", "detection_latency_cycles", telemetry.LatencyBuckets)
	m.Telemetry.RegisterSource("safemem", func(emit func(string, float64)) {
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
		emit("watches_suppressed", float64(s.WatchesSuppressed))
		emit("degrade_periods", float64(s.DegradePeriods))
	})
	return t, nil
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
	s.WatchedLines = uint64(len(t.byLine))
	return s
}

// Groups returns snapshots of all memory-object groups, sorted by first
// allocation order — the input to the Figure 3 lifetime-stability study.
func (t *Tool) Groups() []GroupInfo {
	out := make([]GroupInfo, 0, len(t.groups))
	for _, g := range t.groups {
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Site != out[j].Key.Site {
			return out[i].Key.Site < out[j].Key.Site
		}
		return out[i].Key.Size < out[j].Key.Size
	})
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
// activity is no longer monitored for corruption. Returns the newly
// produced reports.
func (t *Tool) Shutdown() []BugReport {
	sp := t.tr.Begin("safemem", "shutdown")
	defer sp.End()
	before := len(t.reports)
	now := t.m.Clock.Now()
	confirm := t.sortedSuspectRegions(now)
	for _, r := range confirm {
		t.reportLeak(r.obj.group, r.obj)
	}
	t.unwatchAll()
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
		key := GroupKey{Size: b.Size, Site: b.Site}
		g := t.groups[key]
		if g == nil {
			g = &group{key: key, lastUpdate: now, lastMaxChange: now}
			t.groups[key] = g
		}
		obj := &object{block: b, group: g, allocTime: now}
		g.append(obj)
		g.lastAllocTime = now
		g.totalBytes += b.Size
		g.totalAllocs++
		t.objects[b.Addr] = obj
	}

	if t.opts.DetectCorruption {
		t.armPad(b.PadBefore(), watchPadBefore, b)
		t.armPad(b.PadAfter(), watchPadAfter, b)
	}

	if t.opts.DetectUninitRead && !t.lineWatched(b.Addr, b.RoundedSize) {
		if t.corruptionDegraded() || t.lineQuarantined(b.Addr, b.RoundedSize) {
			t.stats.WatchesSuppressed++
		} else if _, err := t.watch(b.Addr, b.RoundedSize, watchUninit, b, nil); err != nil {
			t.degrade("arm-uninit", b.Addr, err.Error())
		}
	}

	t.maybeCheckLeaks()
}

// armPad arms one guard-line watch unless degradation policy suppresses it:
// a quarantined pad line (its DRAM keeps faulting) or a machine-wide
// corruption-arming pause. Arming failures degrade instead of panicking.
func (t *Tool) armPad(base vm.VAddr, kind watchKind, b *heap.Block) {
	if t.corruptionDegraded() || t.lineQuarantined(base, PadLineBytes) {
		t.stats.WatchesSuppressed++
		return
	}
	if _, err := t.watch(base, PadLineBytes, kind, b, nil); err != nil {
		t.degrade("arm-"+kind.String(), base, err.Error())
	}
}

// OnFree implements heap.Hook: the free wrapper.
func (t *Tool) OnFree(b *heap.Block) {
	t.stats.Frees++
	now := t.m.Clock.Now()

	if t.opts.DetectLeaks {
		t.m.Clock.Advance(costLeakFree)
		if obj, ok := t.objects[b.Addr]; ok {
			if obj.suspect != nil {
				// Freeing a watched suspect exonerates it.
				t.stats.SuspectsPruned++
				t.unwatchOrDegrade(obj.suspect, false, "unwatch-on-free")
			}
			g := obj.group
			g.remove(obj)
			g.totalBytes -= b.Size
			g.recordDealloc(now, now-obj.allocTime, t.opts.LifetimeTolerance)
			delete(t.objects, b.Addr)
		}
	}

	// Disable any remaining watches inside the block's extent (guard pads,
	// uninit watch), then watch the whole freed extent (Section 4).
	t.unwatchOverlapping(b.FullAddr, b.FullSize)
	if t.opts.DetectCorruption {
		if t.corruptionDegraded() || t.lineQuarantined(b.FullAddr, b.FullSize) {
			t.stats.WatchesSuppressed++
		} else if _, err := t.watch(b.FullAddr, b.FullSize, watchFreed, b, nil); err != nil {
			t.degrade("arm-freed", b.FullAddr, err.Error())
		}
	}

	t.maybeCheckLeaks()
}

// scrubBefore / scrubAfter implement the scrub-coordination protocol
// (Section 2.2.2): all watches are temporarily disabled while the memory
// controller scrubs, then re-armed.
func (t *Tool) scrubBefore() { t.savedForScrub = t.unwatchAll() }
func (t *Tool) scrubAfter()  { t.rewatchAll(t.savedForScrub); t.savedForScrub = nil }
