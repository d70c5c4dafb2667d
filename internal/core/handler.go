package safemem

import (
	"fmt"

	"safemem/internal/ecc"
	"safemem/internal/kernel"
	"safemem/internal/vm"
)

// handleECCFault is SafeMem's user-level ECC fault handler, registered via
// RegisterECCFaultHandler (Section 2.2.1). Dispatch follows Section 2.2.2:
//
//  1. Is the faulting line one we are monitoring? If not, it is a hardware
//     error somewhere else in memory — decline, and the kernel panics, the
//     stock behaviour.
//  2. Does the observed data carry the scramble signature (observed ==
//     Scramble(saved original))? If not, a real hardware error hit a
//     monitored line; repair it from the private saved copy and continue —
//     the data there was not useful to the program anyway.
//  3. Otherwise this is the first access to a watched location: a bug
//     (corruption watches), a false positive to prune (leak suspects), or
//     an initialisation event (uninit watches).
func (t *Tool) handleECCFault(f *kernel.ECCFault) bool {
	if !f.Watched {
		// A multi-bit error on a line nobody watches: genuine hardware.
		// Count it toward the degradation window before declining — however
		// the kernel resolves it (panic or retire-and-continue), the machine
		// is visibly degrading.
		t.noteMachineError(true)
		return false
	}
	slot, ok := t.regionAt(f.VLine)
	if !ok {
		// The kernel watches it but SafeMem has no record: some other
		// component owns the watch. Decline.
		return false
	}

	// The access-fault signature depends on how the watch was armed: the
	// commodity scramble trick leaves Scramble(original) in memory, while
	// the direct-ECC interface (Section 2.2.3) leaves the data intact and
	// corrupts only the check bits.
	r := &t.regions[slot]
	orig := t.originalWord(r, f.VLine, f.GroupIndex)
	signatureOK := ecc.IsScrambleOf(f.Data, orig)
	if f.Direct {
		signatureOK = f.Data == orig
	}
	if !signatureOK {
		// Signature mismatch: a genuine hardware error corrupted a watched
		// line. Restore the whole region from the private copy. The Hardware
		// flag tells the kernel to charge the line's health ledger — this was
		// failing DRAM, not a tripped watch.
		t.stats.HardwareErrors++
		f.Hardware = true
		t.noteMachineError(true)
		rearm := t.noteLineFault(f.VLine)
		if !t.unwatchOrDegrade(r, true, "hardware-repair") {
			return true
		}
		if rearm {
			// Re-arm at the kernel's next safe point so monitoring continues;
			// quarantined lines stay unwatched (their DRAM keeps faulting).
			t.rearmAfterRepair(*r)
		} else {
			t.refuse(refusedQuarantine)
			t.stats.RearmsSkipped++
		}
		return true
	}

	faultVA := t.faultAddress(f.VLine)

	switch r.kind {
	case watchPadBefore, watchPadAfter:
		t.reportCorruption(r, faultVA)
	case watchFreed:
		t.reportFreedAccess(r, faultVA)
	case watchLeakSuspect:
		t.pruneSuspect(r)
	case watchUninit:
		t.handleUninitFault(r, faultVA)
	default:
		// Unknown kind: drop the watch and keep running rather than killing
		// the monitored program over SafeMem's own bookkeeping.
		t.degrade("unknown-watch-kind", r.base, fmt.Sprintf("fault on watch kind %v", r.kind))
		t.unwatchOrDegrade(r, false, "unwatch-unknown-kind")
	}
	return true
}

// faultAddress returns the most precise faulting address available: the
// in-flight program access if the machine exposes one (the simulator's
// precise-interrupt stand-in), else the line address.
func (t *Tool) faultAddress(vline vm.VAddr) vm.VAddr {
	if va, _, _, ok := t.m.AccessInFlight(); ok {
		return va
	}
	return vline
}

// accessIsWrite reports whether the in-flight access is a store (false when
// unknown, e.g. scrub-triggered faults).
func (t *Tool) accessIsWrite() bool {
	_, _, write, ok := t.m.AccessInFlight()
	return ok && write
}

// reportCorruption reports a guard-line access as a buffer overflow or
// underflow, then disables the tripped guard so execution can continue
// ("SafeMem then simply pauses program execution..." — with StopOnBug the
// program aborts here instead).
func (t *Tool) reportCorruption(r *watchRegion, faultVA vm.VAddr) {
	kind := BugOverflow
	side := "past the end"
	if r.kind == watchPadBefore {
		kind = BugUnderflow
		side = "before the start"
	}
	b := r.block
	latency := t.m.Clock.Now() - r.watchedAt
	t.unwatchOrDegrade(r, false, "unwatch-tripped-pad")
	t.report(BugReport{
		Kind:        kind,
		Latency:     latency,
		Addr:        faultVA,
		BufferAddr:  b.Addr,
		BufferSize:  b.Size,
		Site:        b.Site,
		AccessWrite: t.accessIsWrite(),
		Details: fmt.Sprintf("access %s of buffer [%#x,%#x) allocated at site %#x",
			side, uint64(b.Addr), uint64(b.Addr)+b.Size, b.Site),
	})
}

// reportFreedAccess reports an access to a freed buffer and disables the
// watch for the whole freed extent.
func (t *Tool) reportFreedAccess(r *watchRegion, faultVA vm.VAddr) {
	b := r.block
	latency := t.m.Clock.Now() - r.watchedAt
	t.unwatchOrDegrade(r, false, "unwatch-tripped-freed")
	t.report(BugReport{
		Kind:        BugFreedAccess,
		Latency:     latency,
		Addr:        faultVA,
		BufferAddr:  b.Addr,
		BufferSize:  b.Size,
		Site:        b.Site,
		AccessWrite: t.accessIsWrite(),
		Details: fmt.Sprintf("access to freed buffer [%#x,%#x) allocated at site %#x",
			uint64(b.Addr), uint64(b.Addr)+b.Size, b.Site),
	})
}

// handleUninitFault resolves the first access to a never-written buffer:
// a write initialises it (watch silently disarmed), a read is a bug
// (Section 4's extension).
func (t *Tool) handleUninitFault(r *watchRegion, faultVA vm.VAddr) {
	b := r.block
	write := t.accessIsWrite()
	latency := t.m.Clock.Now() - r.watchedAt
	t.unwatchOrDegrade(r, false, "unwatch-uninit")
	if write {
		t.stats.UninitWrites++
		return
	}
	t.report(BugReport{
		Kind:       BugUninitRead,
		Latency:    latency,
		Addr:       faultVA,
		BufferAddr: b.Addr,
		BufferSize: b.Size,
		Site:       b.Site,
		Details: fmt.Sprintf("read of uninitialized buffer [%#x,%#x) allocated at site %#x",
			uint64(b.Addr), uint64(b.Addr)+b.Size, b.Site),
	})
}
