// Package kernel models the operating-system layer of the simulated
// machine, extended with the paper's three new system calls (Section 2.2.1):
//
//	WatchMemory(address, size)        — start ECC-watching a region
//	DisableWatchMemory(address, size) — stop watching it
//	RegisterECCFaultHandler(fn)       — install a user-level ECC fault handler
//
// plus the stock Mprotect used by the page-protection baseline, page-mapping
// calls used by the heap, ECC machine-check delivery, the default
// panic-on-ECC-error behaviour of unmodified kernels, and scrub
// coordination (Section 2.2.2).
package kernel

import (
	"fmt"
	"math/bits"
	"slices"

	"safemem/internal/cache"
	"safemem/internal/ecc"
	"safemem/internal/memctrl"
	"safemem/internal/pagetab"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// ECCFault is the information delivered to the user-level ECC fault handler
// when the memory controller reports an uncorrectable error.
type ECCFault struct {
	// Watched reports whether the faulting line is registered via
	// WatchMemory. A fault on an unwatched line is a hardware error.
	Watched bool
	// VLine is the virtual address of the faulting cache line (valid only
	// when Watched).
	VLine vm.VAddr
	// PLine is the physical address of the faulting cache line.
	PLine physmem.Addr
	// GroupIndex is the index (0..7) of the faulting ECC group in the line.
	GroupIndex int
	// Data and Check are the raw bits the controller observed.
	Data  uint64
	Check uint8
	// DuringScrub is true when the scrubber, not a demand access, found the
	// error.
	DuringScrub bool
	// Direct is true when the watch was armed through the direct-ECC
	// interface (check bits flipped, data intact) rather than the
	// commodity data-scramble trick. The fault handler's signature check
	// differs accordingly.
	Direct bool
	// Hardware is set BY the fault handler before it returns when it
	// diagnosed a genuine hardware error on a watched line (signature
	// mismatch) rather than a watchpoint trip. The kernel folds such
	// events into its per-line health tracking; watch trips are the
	// detector working as designed and carry no health penalty.
	Hardware bool
}

// ECCFaultHandler is a user-level ECC fault handler. It returns true when
// it handled the fault (after repairing memory, e.g. via
// DisableWatchMemory); returning false sends the kernel to panic mode, the
// behaviour of unmodified Linux/Windows on ECC errors (Section 2.1). The
// fault record is valid only until the handler returns: the kernel reuses
// it for later interrupts.
type ECCFaultHandler func(*ECCFault) bool

// PageFaultHandler is a user-level page-protection fault handler (SIGSEGV
// style), used by the page-protection baseline. It returns true to retry
// the faulting access.
type PageFaultHandler func(*vm.Fault) bool

// PanicError is the value thrown when the kernel enters panic mode. The
// machine's Run wrapper recovers it and turns it into a normal error.
type PanicError struct {
	Msg string
}

// Error implements error.
func (p *PanicError) Error() string { return "kernel panic: " + p.Msg }

// Stats counts kernel activity.
type Stats struct {
	WatchCalls        uint64
	DisableCalls      uint64
	MprotectCalls     uint64
	MapCalls          uint64
	ECCFaultsHandled  uint64
	ECCFaultsHardware uint64
	PageFaults        uint64
	ScrubPasses       uint64
	LinesWatched      uint64 // currently watched
	MaxLinesWatched   uint64 // high-water mark
}

// linesPerPage is the number of cache lines in a page, one bit each in a
// watchPage mask.
const linesPerPage = vm.PageBytes / physmem.LineBytes

// A watchPage mask is one uint64, so a page holds at most 64 lines.
const _ uint = 64 - linesPerPage

// pageMask selects an address's offset within its page.
const pageMask = vm.PageBytes - 1

// watchPage is the kernel's record of the watched lines on one physical
// frame. Bit i of lines is set while line i of the frame is watched; the
// same bit of direct, when that watch was armed through the direct-ECC
// interface. Every watched line of a frame belongs to the one virtual page
// mapped onto it, vpage.
type watchPage struct {
	vpage  vm.VAddr
	lines  uint64
	direct uint64
}

// lineBit returns the mask bit, within its page, of the line containing the
// (virtual or physical) address a.
func lineBit(a uint64) uint64 { return 1 << ((a & pageMask) / physmem.LineBytes) }

// regionMask returns the mask of the lines of the line-aligned region
// [va, end) that lie on the page at pg.
func regionMask(pg, va, end vm.VAddr) uint64 {
	lo, hi := max(va, pg), min(end, pg+vm.PageBytes)
	n := uint64(hi-lo) / physmem.LineBytes
	return (1<<n - 1) << (uint64(lo-pg) / physmem.LineBytes) // n == 64: 1<<64 is 0
}

// firstLine returns the address of the lowest line of mask on the page pg.
func firstLine(pg vm.VAddr, mask uint64) uint64 {
	return uint64(pg) + uint64(bits.TrailingZeros64(mask))*physmem.LineBytes
}

// frameIndex returns the watch-index slot of the frame holding the
// physical address a: its frame number.
func frameIndex(a physmem.Addr) uint64 { return uint64(a) / vm.PageBytes }

// watchSpan is one page of a region being armed or disarmed: the frame,
// the frame's watch record (disarming only) and the region's lines on it.
type watchSpan struct {
	frame physmem.Addr
	rec   *watchPage
	mask  uint64
}

// line returns the physical address of line b of the span's frame.
func (s watchSpan) line(b int) physmem.Addr { return s.frame + physmem.Addr(b*physmem.LineBytes) }

// Kernel is the simulated operating system.
type Kernel struct {
	clock *simtime.Clock
	ctrl  *memctrl.Controller
	cache *cache.Cache
	as    *vm.AddressSpace

	// watches is the one watch index, a table indexed by frame number
	// (frameIndex). Fault delivery looks a line up by its physical address;
	// the syscalls reach it through the page table. A watched page is
	// pinned, so its frame changes only by retirement, which moves the
	// record. A record with no watched lines is all zero, so a table whose
	// nWatched is 0 holds only zero records.
	watches pagetab.Table[watchPage]
	// nWatched counts the watched lines across watches.
	nWatched int
	// spans is the syscalls' per-call scratch, one entry per page. No
	// syscall issues an ECC-checked read, so no fault handler can re-enter
	// one while the scratch is in use.
	spans []watchSpan

	eccHandler  ECCFaultHandler
	pageHandler PageFaultHandler
	// faults holds the ECCFault record of each interrupt nesting depth,
	// reused across interrupts; faultDepth counts the depths in use. A
	// handler can re-enter the kernel (an unwatch that faults again), so a
	// nested interrupt must not overwrite the record its caller holds.
	faults     []*ECCFault
	faultDepth int

	// scrub coordination hooks (SafeMem temporarily unwatches everything
	// around a scrub pass, Section 2.2.2).
	scrubBefore func()
	scrubAfter  func()

	// Hardware-fault resilience state (see resilience.go). Deferred work —
	// page retirements, one-shot callbacks, scrub-daemon steps — is queued
	// from interrupt context and drained at machine access boundaries,
	// where no memory access is in flight.
	res            ResilienceOptions
	resStats       ResilienceStats
	health         map[physmem.Addr]*lineHealth
	healthObserver bool
	pendingRetire  []physmem.Addr
	retireQueued   map[physmem.Addr]bool
	deferred       []func() // queued callbacks, from deferHead on
	deferHead      int
	inDeferred     bool
	onRetire       RetireNotifier
	scrubd         *scrubDaemon

	// Storage of per-run state kept across machine recycles, outside the
	// image: the health observer and scrub filter, each bound once, and
	// the last scrub daemon, which the next StartScrubDaemon resets and
	// reuses with its timer (simtime.Clock.Rearm).
	healthFn    memctrl.FaultObserver
	scrubFilter func(line physmem.Addr) bool
	scrubSpare  *scrubDaemon

	tr       *telemetry.Tracer
	panicked bool
	stats    Stats
}

// New wires a kernel to the hardware. It installs itself as the
// controller's machine-check handler.
func New(clock *simtime.Clock, ctrl *memctrl.Controller, c *cache.Cache, as *vm.AddressSpace) *Kernel {
	k := &Kernel{
		clock:        clock,
		ctrl:         ctrl,
		cache:        c,
		as:           as,
		res:          DefaultResilienceOptions(),
		health:       make(map[physmem.Addr]*lineHealth),
		retireQueued: make(map[physmem.Addr]bool),
	}
	ctrl.SetInterruptHandler(k.handleECCInterrupt)
	// Keep paging coherent with the CPU cache: frames are flushed before
	// swap transfers and ownership changes.
	as.SetFlusher(c)
	return k
}

// AddressSpace returns the process address space managed by this kernel.
func (k *Kernel) AddressSpace() *vm.AddressSpace { return k.as }

// RegisterTelemetry registers the kernel's counters with the registry and
// adopts its tracer for syscall-level spans (WatchMemory, DisableWatch,
// coordinated scrubs).
func (k *Kernel) RegisterTelemetry(reg *telemetry.Registry) {
	k.tr = reg.Tracer()
	reg.RegisterSource("kernel", func(emit func(string, float64)) {
		s := k.Stats()
		emit("watch_calls", float64(s.WatchCalls))
		emit("disable_calls", float64(s.DisableCalls))
		emit("mprotect_calls", float64(s.MprotectCalls))
		emit("map_calls", float64(s.MapCalls))
		emit("ecc_faults_handled", float64(s.ECCFaultsHandled))
		emit("ecc_faults_hardware", float64(s.ECCFaultsHardware))
		emit("page_faults", float64(s.PageFaults))
		emit("scrub_passes", float64(s.ScrubPasses))
		emit("lines_watched", float64(s.LinesWatched))
		emit("max_lines_watched", float64(s.MaxLinesWatched))
		rs := k.resStats
		emit("pages_retired", float64(rs.PagesRetired))
		emit("data_loss_events", float64(rs.DataLossEvents))
		emit("retire_failures", float64(rs.RetireFailures))
		emit("scrub_daemon_steps", float64(rs.ScrubDaemonSteps))
	})
}

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.LinesWatched = uint64(k.nWatched)
	return s
}

// Panicked reports whether the kernel has entered panic mode.
func (k *Kernel) Panicked() bool { return k.panicked }

// Panic puts the kernel into panic mode — the blue-screen/reboot path of
// Section 2.1 — and unwinds with a *PanicError.
func (k *Kernel) Panic(format string, args ...any) {
	k.panicked = true
	panic(&PanicError{Msg: fmt.Sprintf(format, args...)})
}

// RegisterECCFaultHandler installs the user-level ECC fault handler
// (syscall 3 of Section 2.2.1).
func (k *Kernel) RegisterECCFaultHandler(h ECCFaultHandler) {
	k.clock.Advance(simtime.CostSyscall)
	k.eccHandler = h
}

// RegisterPageFaultHandler installs a user-level page-fault handler
// (the SIGSEGV path used by the page-protection baseline).
func (k *Kernel) RegisterPageFaultHandler(h PageFaultHandler) {
	k.clock.Advance(simtime.CostSyscall)
	k.pageHandler = h
}

// PageFaultHandler returns the installed page-fault handler, if any.
func (k *Kernel) PageFaultHandler() PageFaultHandler { return k.pageHandler }

// SetScrubHooks registers callbacks run before and after each coordinated
// scrub pass. SafeMem uses them to unwatch and rewatch all regions.
func (k *Kernel) SetScrubHooks(before, after func()) {
	k.scrubBefore = before
	k.scrubAfter = after
}

// handleECCInterrupt is the machine-check entry point called by the memory
// controller on an uncorrectable error.
func (k *Kernel) handleECCInterrupt(r memctrl.FaultReport) {
	if k.panicked {
		return
	}
	if k.faultDepth == len(k.faults) {
		k.faults = append(k.faults, new(ECCFault))
	}
	fault := k.faults[k.faultDepth]
	k.faultDepth++
	defer func() { k.faultDepth-- }()
	*fault = ECCFault{
		PLine:       r.Line,
		GroupIndex:  r.Group.GroupInLine(),
		Data:        r.Data,
		Check:       r.Check,
		DuringScrub: r.DuringScrub,
	}
	if wp := k.watches.Get(frameIndex(r.Line)); wp.lines&lineBit(uint64(r.Line)) != 0 {
		fault.Watched = true
		fault.VLine = wp.vpage + vm.VAddr(r.Line&pageMask)
		fault.Direct = wp.direct&lineBit(uint64(r.Line)) != 0
	}
	if k.eccHandler != nil {
		if k.eccHandler(fault) {
			k.stats.ECCFaultsHandled++
			if fault.Hardware {
				// The handler repaired a genuine hardware error on a
				// watched line; fold it into the line's health history.
				k.noteHealth(fault.PLine, k.res.UncorrectableWeight)
			}
			return
		}
	}
	k.stats.ECCFaultsHardware++
	if k.res.Policy == RetireAndContinue {
		k.surviveUncorrectable(r, fault)
		return
	}
	k.Panic("uncorrectable ECC error at physical line %#x group %d (data %#x check %#x)",
		uint64(r.Line), fault.GroupIndex, r.Data, r.Check)
}

// checkLineRegion validates the WatchMemory alignment rules: the region and
// its size must be cache-line aligned (Section 2.2.1).
func checkLineRegion(va vm.VAddr, size uint64) error {
	if uint64(va)%physmem.LineBytes != 0 {
		return fmt.Errorf("kernel: region %#x not cache-line aligned", uint64(va))
	}
	if size == 0 || size%physmem.LineBytes != 0 {
		return fmt.Errorf("kernel: region size %d not a positive multiple of the line size", size)
	}
	return nil
}

// WatchMemory registers the [va, va+size) region for ECC monitoring and
// returns the original data words (8 per line) in a new slice. It is
// AppendWatchMemory(nil, va, size).
func (k *Kernel) WatchMemory(va vm.VAddr, size uint64) ([]uint64, error) {
	return k.AppendWatchMemory(nil, va, size)
}

// AppendWatchMemory registers the [va, va+size) region for ECC monitoring
// and appends the original data words (8 per line) to dst, returning the
// extended slice (dst unchanged on error). The caller — SafeMem's
// user-level library — stores them in its private memory to differentiate
// access faults from hardware errors (Section 2.2.2, Figure 2).
//
// Implementation follows the paper exactly: pin the pages, flush the lines
// from the cache, lock the memory bus, disable ECC, write the scrambled
// data (leaving the stale check bits), re-enable ECC, unlock.
func (k *Kernel) AppendWatchMemory(dst []uint64, va vm.VAddr, size uint64) ([]uint64, error) {
	sp := k.tr.Begin("kernel", "WatchMemory",
		telemetry.KV("va", uint64(va)), telemetry.KV("bytes", size))
	defer sp.End()
	k.clock.Advance(simtime.CostSyscall)
	k.stats.WatchCalls++
	if err := checkLineRegion(va, size); err != nil {
		return dst, err
	}
	end := va + vm.VAddr(size)
	first := va.PageAddr()

	// Reject an already-watched line before touching anything. A watched
	// page is pinned and so resident: a page without a frame holds none.
	k.spans = k.spans[:0]
	for pg := first; pg < end; pg += vm.PageBytes {
		mask := regionMask(pg, va, end)
		if frame, ok := k.as.FrameOf(pg); ok {
			if dup := mask & k.watches.Get(frameIndex(frame)).lines; dup != 0 {
				return dst, fmt.Errorf("kernel: line %#x already watched", firstLine(pg, dup))
			}
		}
		k.spans = append(k.spans, watchSpan{mask: mask})
	}

	// Pin every page covering the region so swapping cannot silently
	// destroy the stale-check-bit state. Pin before translating: pinning a
	// swapped-out page swaps it in, which may evict a page translated
	// earlier, but a pinned page stays put. A failure undoes every pin.
	for pg := first; pg < end; pg += vm.PageBytes {
		if err := k.as.Pin(pg); err != nil {
			k.unpinPages(first, pg)
			return dst, err
		}
	}
	// Translate every line for writing, one call per page: its first line
	// resolves the frame and the rest are settled in the same call.
	nLines := 0
	for i := range k.spans {
		s := &k.spans[i]
		pg := first + vm.VAddr(i)*vm.PageBytes
		n := bits.OnesCount64(s.mask)
		pa, fault := k.as.TranslateLines(max(va, pg), uint64(n), true)
		if fault != nil {
			k.unpinPages(first, end)
			return dst, fault
		}
		s.frame = pa &^ pageMask
		nLines += n
	}

	// Flush every line BEFORE disabling ECC: a dirty write-back must go
	// through the ECC generator so the stored check bits match the data we
	// are about to save as "original". (Flushing inside the disabled
	// window would store the write-back with stale check bits, and the
	// scrambled word could then alias to a correctable — or even clean —
	// codeword, silently defeating the watchpoint.)
	for _, s := range k.spans {
		for m := s.mask; m != 0; m &= m - 1 {
			k.cache.FlushLine(s.line(bits.TrailingZeros64(m)))
		}
	}

	dst = slices.Grow(dst, nLines*physmem.GroupsPerLine)
	direct := k.ctrl.Capabilities().DirectECCAccess
	if direct {
		// The Section 2.2.3 generalised interface: arm each group by
		// flipping two check bits. Data stays intact, no bus lock, no
		// ECC-disable window.
		for _, s := range k.spans {
			for m := s.mask; m != 0; m &= m - 1 {
				pl := s.line(bits.TrailingZeros64(m))
				words := k.ctrl.PeekLine(pl)
				dst = append(dst, words[:]...)
				for g := range words {
					ga := pl + physmem.Addr(g*physmem.GroupBytes)
					k.ctrl.WriteCheckBits(ga, uint8(ecc.ScrambleCheck(ecc.Check(k.ctrl.ReadCheckBits(ga)))))
				}
			}
		}
	} else {
		// One lock/disable window covers the whole region: the expensive
		// bus quiesce and chipset mode switches are paid once, the
		// per-line work (save, scramble) is paid per line.
		k.ctrl.LockBus()
		prevMode := k.ctrl.Mode()
		k.ctrl.SetMode(memctrl.Disabled)
		for _, s := range k.spans {
			for m := s.mask; m != 0; m &= m - 1 {
				pl := s.line(bits.TrailingZeros64(m))
				words := k.ctrl.PeekLine(pl)
				dst = append(dst, words[:]...)
				var scrambled [physmem.GroupsPerLine]uint64
				for g, w := range words {
					scrambled[g] = ecc.Scramble(w)
				}
				k.clock.Advance(simtime.CostScrambleWord * physmem.GroupsPerLine)
				k.ctrl.WriteLine(pl, scrambled) // data only; check bits stay stale
			}
		}
		k.ctrl.SetMode(prevMode)
		k.ctrl.UnlockBus()
	}

	for i, s := range k.spans {
		wp := k.watches.Slot(frameIndex(s.frame))
		wp.vpage = first + vm.VAddr(i)*vm.PageBytes
		wp.lines |= s.mask
		if direct {
			wp.direct |= s.mask
		}
	}
	k.nWatched += nLines
	if n := uint64(k.nWatched); n > k.stats.MaxLinesWatched {
		k.stats.MaxLinesWatched = n
	}
	return dst, nil
}

// unpinPages unpins the pages [from, to), undoing pins a failed
// WatchMemory took. Unpin of a page just pinned cannot fail.
func (k *Kernel) unpinPages(from, to vm.VAddr) {
	for pg := from; pg < to; pg += vm.PageBytes {
		_ = k.as.Unpin(pg)
	}
}

// lookupWatched fills k.spans with the pages of the line-aligned region
// [va, va+size), failing on the lowest line that is not watched.
func (k *Kernel) lookupWatched(va vm.VAddr, size uint64) error {
	k.spans = k.spans[:0]
	end := va + vm.VAddr(size)
	for pg := va.PageAddr(); pg < end; pg += vm.PageBytes {
		mask := regionMask(pg, va, end)
		var wp *watchPage
		var lines uint64
		frame, ok := k.as.FrameOf(pg)
		if ok {
			if wp = k.watches.At(frameIndex(frame)); wp != nil {
				lines = wp.lines
			}
		}
		if missing := mask &^ lines; missing != 0 {
			return fmt.Errorf("kernel: line %#x not watched", firstLine(pg, missing))
		}
		k.spans = append(k.spans, watchSpan{frame: frame, rec: wp, mask: mask})
	}
	return nil
}

// dropWatches removes the lines of mask from the watch record wp, zeroing
// a record left with no watched line.
func (k *Kernel) dropWatches(wp *watchPage, mask uint64) {
	wp.lines &^= mask
	wp.direct &^= mask
	k.nWatched -= bits.OnesCount64(mask)
	if wp.lines == 0 {
		*wp = watchPage{}
	}
}

// DisableWatchMemory removes monitoring from [va, va+size): it restores the
// original data (un-scrambling — the scramble is an involution), writes it
// through the ECC-enabled path so the check bits become consistent again,
// and unpins the pages.
func (k *Kernel) DisableWatchMemory(va vm.VAddr, size uint64) error {
	sp := k.tr.Begin("kernel", "DisableWatchMemory",
		telemetry.KV("va", uint64(va)), telemetry.KV("bytes", size))
	defer sp.End()
	k.clock.Advance(simtime.CostSyscall)
	k.stats.DisableCalls++
	if err := checkLineRegion(va, size); err != nil {
		return err
	}
	if err := k.lookupWatched(va, size); err != nil {
		return err
	}
	// Direct-armed regions disarm with per-group check-bit restores; the
	// commodity path un-scrambles under the bus lock. Mixed regions are
	// impossible (the backend is chosen per WatchMemory call and regions
	// are disabled with the same extents), but handle lines individually
	// anyway.
	anyScrambled := false
	for _, s := range k.spans {
		if s.mask&^s.rec.direct != 0 {
			anyScrambled = true
		}
	}
	if anyScrambled {
		k.ctrl.LockBus()
	}
	for _, s := range k.spans {
		for m := s.mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			pl := s.line(b)

			// The line cannot be validly cached (it was flushed at watch
			// time and every fill since would have faulted), but flush
			// defensively so a stale copy can never mask the restore.
			k.cache.FlushLine(pl)

			if s.rec.direct&(1<<b) != 0 {
				// Data is intact; recompute honest check bits per group.
				raw := k.ctrl.PeekLine(pl)
				for g, w := range raw {
					ga := pl + physmem.Addr(g*physmem.GroupBytes)
					k.ctrl.WriteCheckBits(ga, uint8(ecc.Encode(w)))
				}
			} else {
				raw := k.ctrl.PeekLine(pl)
				var restored [physmem.GroupsPerLine]uint64
				for g, w := range raw {
					restored[g] = ecc.Scramble(w) // involution: unscramble
				}
				k.clock.Advance(simtime.CostScrambleWord*physmem.GroupsPerLine + simtime.CostWriteBack)
				k.ctrl.WriteLine(pl, restored) // ECC enabled: fresh check bits
			}
		}
		k.dropWatches(s.rec, s.mask)
	}
	if anyScrambled {
		k.ctrl.UnlockBus()
	}
	for pg := va.PageAddr(); pg < va+vm.VAddr(size); pg += vm.PageBytes {
		if err := k.as.Unpin(pg); err != nil {
			return err
		}
	}
	return nil
}

// DisableWatchMemoryWithData removes monitoring from [va, va+size) and
// restores the region from the caller-provided original words (8 per line)
// instead of un-scrambling the in-memory data. SafeMem uses this path after
// a real hardware error corrupted a watched line: the in-memory bits are no
// longer Scramble(original), so only the private saved copy can repair them
// (Section 2.2.2, "Differentiate Hardware Errors from Access Faults").
func (k *Kernel) DisableWatchMemoryWithData(va vm.VAddr, size uint64, original []uint64) error {
	sp := k.tr.Begin("kernel", "DisableWatchMemoryWithData",
		telemetry.KV("va", uint64(va)), telemetry.KV("bytes", size))
	defer sp.End()
	k.clock.Advance(simtime.CostSyscall)
	k.stats.DisableCalls++
	if err := checkLineRegion(va, size); err != nil {
		return err
	}
	nLines := int(size / physmem.LineBytes)
	if len(original) != nLines*physmem.GroupsPerLine {
		return fmt.Errorf("kernel: original data has %d words, want %d", len(original), nLines*physmem.GroupsPerLine)
	}
	if err := k.lookupWatched(va, size); err != nil {
		return err
	}
	for _, s := range k.spans {
		for m := s.mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			pl := s.line(b)
			lva := s.rec.vpage + vm.VAddr(b*physmem.LineBytes)
			i := int(uint64(lva-va) / physmem.LineBytes)
			k.cache.FlushLine(pl)
			k.ctrl.LockBus()
			var restored [physmem.GroupsPerLine]uint64
			copy(restored[:], original[i*physmem.GroupsPerLine:])
			k.clock.Advance(simtime.CostScrambleWord*physmem.GroupsPerLine + simtime.CostWriteBack)
			k.ctrl.WriteLine(pl, restored)
			k.ctrl.UnlockBus()
		}
		k.dropWatches(s.rec, s.mask)
	}
	for pg := va.PageAddr(); pg < va+vm.VAddr(size); pg += vm.PageBytes {
		if err := k.as.Unpin(pg); err != nil {
			return err
		}
	}
	return nil
}

// Watched reports whether the line containing va is currently watched.
func (k *Kernel) Watched(va vm.VAddr) bool {
	frame, ok := k.as.FrameOf(va)
	return ok && k.watches.Get(frameIndex(frame)).lines&lineBit(uint64(va)) != 0
}

// watchedPhys reports whether the physical line pl is watched.
func (k *Kernel) watchedPhys(pl physmem.Addr) bool {
	return k.watches.Get(frameIndex(pl)).lines&lineBit(uint64(pl)) != 0
}

// Mprotect changes the protection of npages pages at va — the stock
// syscall the page-protection baseline builds on.
func (k *Kernel) Mprotect(va vm.VAddr, npages int, prot vm.Prot) error {
	k.clock.Advance(simtime.CostSyscall + simtime.CostTLBFlush)
	k.stats.MprotectCalls++
	return k.as.Protect(va, npages, prot)
}

// MapPages maps npages fresh pages at va with read-write protection — the
// mmap/sbrk path used by the heap allocator.
func (k *Kernel) MapPages(va vm.VAddr, npages int) error {
	k.clock.Advance(simtime.CostSyscall)
	k.stats.MapCalls++
	return k.as.Map(va, npages, vm.ProtRW)
}

// UnmapPages unmaps npages pages at va.
func (k *Kernel) UnmapPages(va vm.VAddr, npages int) error {
	k.clock.Advance(simtime.CostSyscall)
	return k.as.Unmap(va, npages)
}

// Image is an immutable checkpoint of a Kernel's state, taken with
// CaptureImage. Snapshots are captured on idle machines (the pristine
// image of a freshly built machine, no program ops yet), so the state it
// copies is typically empty and both capture and restore stay O(1).
type Image struct {
	k           *Kernel
	watches     []frameWatch
	nWatched    int
	eccHandler  ECCFaultHandler
	pageHandler PageFaultHandler
	scrubBefore func()
	scrubAfter  func()

	res            ResilienceOptions
	resStats       ResilienceStats
	health         map[physmem.Addr]lineHealth
	healthObserver bool
	pendingRetire  []physmem.Addr
	retireQueued   map[physmem.Addr]bool
	deferred       []func()
	onRetire       RetireNotifier
	stats          Stats
}

// frameWatch is one watched frame of an Image: its frame number and record.
type frameWatch struct {
	frame uint64
	wp    watchPage
}

// CaptureImage checkpoints the kernel. The scrub daemon must not be running
// (it is per-run state started after restore; its timer identity could not
// survive a clock restore) and no deferred work may be in flight.
func (k *Kernel) CaptureImage() *Image {
	if k.scrubd != nil {
		panic("kernel: CaptureImage with the scrub daemon running")
	}
	if k.inDeferred {
		panic("kernel: CaptureImage during deferred work")
	}
	if k.panicked {
		panic("kernel: CaptureImage on a panicked kernel")
	}
	img := &Image{
		k:              k,
		nWatched:       k.nWatched,
		eccHandler:     k.eccHandler,
		pageHandler:    k.pageHandler,
		scrubBefore:    k.scrubBefore,
		scrubAfter:     k.scrubAfter,
		res:            k.res,
		resStats:       k.resStats,
		health:         make(map[physmem.Addr]lineHealth, len(k.health)),
		healthObserver: k.healthObserver,
		pendingRetire:  append([]physmem.Addr(nil), k.pendingRetire...),
		retireQueued:   make(map[physmem.Addr]bool, len(k.retireQueued)),
		deferred:       append([]func(){}, k.deferred[k.deferHead:]...),
		onRetire:       k.onRetire,
		stats:          k.stats,
	}
	if k.nWatched > 0 {
		k.watches.Range(func(frame uint64, wp *watchPage) bool {
			if wp.lines != 0 {
				img.watches = append(img.watches, frameWatch{frame, *wp})
			}
			return true
		})
	}
	for pl, h := range k.health {
		img.health[pl] = *h
	}
	for f := range k.retireQueued {
		img.retireQueued[f] = true
	}
	return img
}

// RestoreImage puts the kernel back into the captured state. The caller must
// restore the clock, controller, cache and address space first: the scrub
// daemon's timer dies with the clock's timer truncation, and the controller
// image owns the scrub filter, mode and observer list. Costs O(captured
// state); with the typical empty capture it allocates nothing.
func (k *Kernel) RestoreImage(img *Image) {
	if img.k != k {
		panic("kernel: RestoreImage with an image captured from a different kernel")
	}
	// The daemon (if a run started one) is per-run state: its clock timer was
	// already truncated away by the clock restore, so only the pointer and
	// the controller-side filter remain — the controller image restores the
	// filter, we drop the pointer.
	k.scrubd = nil
	if k.nWatched > 0 {
		k.watches.Clear()
	}
	for _, fw := range img.watches {
		*k.watches.Slot(fw.frame) = fw.wp
	}
	k.nWatched = img.nWatched
	k.eccHandler = img.eccHandler
	k.pageHandler = img.pageHandler
	k.scrubBefore, k.scrubAfter = img.scrubBefore, img.scrubAfter
	k.res = img.res
	k.resStats = img.resStats
	clear(k.health)
	for pl, h := range img.health {
		hc := h
		k.health[pl] = &hc
	}
	k.healthObserver = img.healthObserver
	k.pendingRetire = append(k.pendingRetire[:0], img.pendingRetire...)
	clear(k.retireQueued)
	for f := range img.retireQueued {
		k.retireQueued[f] = true
	}
	clear(k.deferred)
	k.deferred, k.deferHead = append(k.deferred[:0], img.deferred...), 0
	k.inDeferred = false
	k.onRetire = img.onRetire
	k.panicked = false
	k.stats = img.stats
}

// CoordinatedScrub performs one full scrub pass with the coordination
// protocol of Section 2.2.2: the before-hook (SafeMem) unwatches all
// regions and blocks the program, the scrubber runs, and the after-hook
// re-watches. Without the hooks, scrubbing a watched line would raise a
// spurious fault.
func (k *Kernel) CoordinatedScrub() {
	sp := k.tr.Begin("kernel", "CoordinatedScrub")
	defer sp.End()
	k.stats.ScrubPasses++
	if k.scrubBefore != nil {
		k.scrubBefore()
	}
	k.ctrl.ScrubAll()
	if k.scrubAfter != nil {
		k.scrubAfter()
	}
}
