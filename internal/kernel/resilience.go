// Hardware-fault resilience: the kernel half of surviving DRAM faults
// instead of blue-screening on them. Unmodified kernels panic on any
// uncorrectable ECC error (Section 2.1); production machines with flaky
// DIMMs instead track per-line error history, retire pages whose frames
// keep faulting, and keep running with degraded data when a loss is truly
// unrecoverable. This file implements that ladder:
//
//  1. correctable errors feed a per-line leaky-bucket health score;
//  2. genuine uncorrectable errors (including ones SafeMem repaired from
//     its saved copy) add a heavier weight;
//  3. a line whose score crosses the retirement threshold gets its whole
//     frame queued for retirement — the page migrates to a healthy frame
//     (raw bits verbatim, so watch scrambles survive) and the bad frame is
//     quarantined forever;
//  4. an uncorrectable error nobody can repair is, under RetireAndContinue,
//     absorbed as a data-loss event: the line is rewritten through the ECC
//     generator so the machine keeps running, and the frame's health takes
//     the full uncorrectable penalty.
//
// Retirement cannot run inside the ECC interrupt — the controller re-reads
// the faulting group after the handler returns, and the cache refills under
// the old physical address — so threshold crossings only enqueue work here.
// The machine drains the queue via RunDeferredWork at access boundaries,
// when no memory operation is in flight.

package kernel

import (
	"math/bits"

	"safemem/internal/memctrl"
	"safemem/internal/obsrv/flight"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// RetirePolicy selects the kernel's response to an uncorrectable ECC error
// that the user-level handler did not handle.
type RetirePolicy int

const (
	// PanicOnUncorrectable is the stock behaviour of unmodified
	// Linux/Windows (Section 2.1): machine-check panic, reboot.
	PanicOnUncorrectable RetirePolicy = iota
	// RetireAndContinue keeps the machine running: the fault is absorbed
	// as a data-loss event, the line's health history is charged, and
	// frames that keep faulting are retired.
	RetireAndContinue
)

// String returns the policy name.
func (p RetirePolicy) String() string {
	if p == RetireAndContinue {
		return "RetireAndContinue"
	}
	return "PanicOnUncorrectable"
}

// ResilienceOptions configures the kernel's hardware-fault handling.
type ResilienceOptions struct {
	// Policy selects panic vs. survive on unhandled uncorrectable errors.
	Policy RetirePolicy
	// RetireThreshold is the leaky-bucket score at which a line's frame is
	// queued for retirement.
	RetireThreshold int
	// UncorrectableWeight is the health charge for one genuine
	// uncorrectable error; correctable errors charge 1.
	UncorrectableWeight int
	// LeakInterval is how often the bucket leaks one point: transient
	// single-bit upsets spread over time never accumulate to retirement,
	// while a weak cell faulting in bursts does.
	LeakInterval simtime.Cycles
}

// DefaultResilienceOptions returns the defaults: stock panic policy, with
// thresholds matching common BIOS/OS page-offlining heuristics (retire
// after a handful of correlated errors, forget isolated ones).
func DefaultResilienceOptions() ResilienceOptions {
	return ResilienceOptions{
		Policy:              PanicOnUncorrectable,
		RetireThreshold:     8,
		UncorrectableWeight: 4,
		LeakInterval:        1_000_000,
	}
}

// ResilienceStats counts resilience activity.
type ResilienceStats struct {
	PagesRetired     uint64 // frames quarantined after repeated errors
	WatchesMigrated  uint64 // watched lines re-pointed by retirements
	DataLossEvents   uint64 // unhandled uncorrectables absorbed (not repaired)
	RetireFailures   uint64 // retirements abandoned (e.g. no spare frame)
	ScrubDaemonSteps uint64 // background scrub chunks executed
}

// RetireNotifier is called after each successful page retirement with the
// doomed and replacement frame bases and the virtual line addresses of any
// watches that were re-pointed. SafeMem's library uses it to keep its own
// error accounting in step with the kernel's.
type RetireNotifier func(oldFrame, freshFrame physmem.Addr, movedWatches []vm.VAddr)

// lineHealth is one line's leaky-bucket error score.
type lineHealth struct {
	score int
	last  simtime.Cycles // last leak accounting time
}

// SetResilience installs the resilience configuration. Zero-valued
// threshold fields take their defaults, so callers can set just the policy.
func (k *Kernel) SetResilience(opts ResilienceOptions) {
	d := DefaultResilienceOptions()
	if opts.RetireThreshold <= 0 {
		opts.RetireThreshold = d.RetireThreshold
	}
	if opts.UncorrectableWeight <= 0 {
		opts.UncorrectableWeight = d.UncorrectableWeight
	}
	if opts.LeakInterval <= 0 {
		opts.LeakInterval = d.LeakInterval
	}
	k.res = opts
	if opts.Policy == RetireAndContinue && !k.healthObserver {
		// Correctable errors never reach handleECCInterrupt (the controller
		// fixes them inline), so health tracking taps the observer list.
		// AddFaultObserver, not SetFaultObserver: the single slot belongs to
		// the fault injector's latency probe.
		if k.healthFn == nil {
			k.healthFn = k.observeECCEvent
		}
		k.ctrl.AddFaultObserver(k.healthFn)
		k.healthObserver = true
	}
}

// Resilience returns the current resilience configuration.
func (k *Kernel) Resilience() ResilienceOptions { return k.res }

// ResilienceStats returns a copy of the resilience counters.
func (k *Kernel) ResilienceStats() ResilienceStats { return k.resStats }

// SetRetireNotifier installs the retirement notification callback.
func (k *Kernel) SetRetireNotifier(fn RetireNotifier) { k.onRetire = fn }

// LineHealth returns the current leaky-bucket score of the line at pl,
// without applying leak decay. Zero means no recorded history.
func (k *Kernel) LineHealth(pl physmem.Addr) int {
	if h, ok := k.health[pl.LineAddr()]; ok {
		return h.score
	}
	return 0
}

// observeECCEvent is the controller fault observer feeding health tracking.
// Only correctable events are counted here: uncorrectable reports go
// through handleECCInterrupt, where watchpoint trips (the detector working
// as designed) can be told apart from genuine hardware errors.
func (k *Kernel) observeECCEvent(group physmem.Addr, uncorrectable bool) {
	if uncorrectable {
		return
	}
	k.noteHealth(group.LineAddr(), 1)
}

// noteHealth charges weight to the line's leaky bucket and queues the
// containing frame for retirement when the score crosses the threshold.
// Interrupt-safe: it touches only counters and the retirement queue.
func (k *Kernel) noteHealth(line physmem.Addr, weight int) {
	if k.res.Policy != RetireAndContinue || weight <= 0 {
		return
	}
	line = line.LineAddr()
	now := k.clock.Now()
	h := k.health[line]
	if h == nil {
		h = &lineHealth{last: now}
		k.health[line] = h
	} else if now > h.last {
		// Leak one point per LeakInterval elapsed, keeping the remainder
		// so slow drips still eventually drain the bucket.
		leaked := int((now - h.last) / k.res.LeakInterval)
		if leaked > 0 {
			h.score -= leaked
			if h.score < 0 {
				h.score = 0
			}
			h.last += simtime.Cycles(leaked) * k.res.LeakInterval
		}
	}
	h.score += weight
	if h.score >= k.res.RetireThreshold {
		k.queueRetire(line)
	}
}

// queueRetire enqueues the frame containing line for deferred retirement.
func (k *Kernel) queueRetire(line physmem.Addr) {
	frame := line &^ physmem.Addr(vm.PageBytes-1)
	if k.retireQueued[frame] || k.as.Retired(frame) {
		return
	}
	k.retireQueued[frame] = true
	k.pendingRetire = append(k.pendingRetire, frame)
}

// surviveUncorrectable is the RetireAndContinue floor of the degradation
// ladder: nobody could repair the fault, so the kernel accepts the observed
// (corrupt) data as the new truth, rewrites the line through the ECC
// generator so memory holds a valid codeword again, and charges the line's
// health. Any watch bookkeeping on the line is dropped — its scramble state
// is gone.
func (k *Kernel) surviveUncorrectable(r memctrl.FaultReport, fault *ECCFault) {
	sp := k.tr.Begin("kernel", "survive-uncorrectable", telemetry.KV("line", uint64(r.Line)))
	defer sp.End()
	k.resStats.DataLossEvents++
	flight.Emit(flight.KindDataLoss, "kernel", k.clock.Now(), "uncorrectable fault accepted as data loss",
		flight.F("line", uint64(r.Line)))
	pl := r.Line
	if fault.Watched {
		k.dropWatches(k.watches.Slot(frameIndex(pl)), lineBit(uint64(pl)))
		_ = k.as.Unpin(fault.VLine.PageAddr()) // best effort; watch is gone
	}
	// Flush first so no stale cached copy can mask the rewrite, then write
	// the raw bits back with ECC enabled: fresh check bits, same (lost)
	// data. The controller's post-handler re-read then decodes cleanly.
	k.cache.FlushLine(pl)
	raw := k.ctrl.PeekLine(pl)
	k.ctrl.WriteLine(pl, raw)
	k.noteHealth(pl, k.res.UncorrectableWeight)
}

// Defer queues fn to run at the next deferred-work point (after the current
// memory access completes). SafeMem's library uses it to re-arm watches
// from inside the ECC fault handler, where arming directly would make the
// controller's post-handler re-read fault recursively.
func (k *Kernel) Defer(fn func()) { k.deferred = append(k.deferred, fn) }

// WorkPending cheaply reports whether RunDeferredWork has anything to do.
// The machine's access loop checks it so the no-work common case is a
// couple of loads and branches instead of a call into the queue drain.
func (k *Kernel) WorkPending() bool {
	return len(k.pendingRetire) > 0 || len(k.deferred) > k.deferHead ||
		(k.scrubd != nil && k.scrubd.due)
}

// RunDeferredWork drains queued retirements, deferred callbacks and due
// scrub-daemon steps. The machine calls it after every completed memory
// access; it is reentrancy-guarded and O(1) when nothing is pending.
func (k *Kernel) RunDeferredWork() {
	if k.inDeferred || k.panicked {
		return
	}
	k.inDeferred = true
	defer func() { k.inDeferred = false }()
	for {
		switch {
		case len(k.pendingRetire) > 0:
			frame := k.pendingRetire[0]
			k.pendingRetire = k.pendingRetire[1:]
			delete(k.retireQueued, frame)
			k.retireFrame(frame)
		case len(k.deferred) > k.deferHead:
			// Pop by head index, and rewind an emptied queue, so the
			// queue's storage is reused instead of sliced away.
			fn := k.deferred[k.deferHead]
			k.deferred[k.deferHead] = nil
			k.deferHead++
			if k.deferHead == len(k.deferred) {
				k.deferred, k.deferHead = k.deferred[:0], 0
			}
			fn()
		case k.scrubd != nil && k.scrubd.due:
			k.scrubDaemonStep()
		default:
			return
		}
	}
}

// retireFrame migrates the page on frame to a healthy frame, quarantines
// frame, and re-points any watch bookkeeping. Runs only at deferred-work
// points.
func (k *Kernel) retireFrame(frame physmem.Addr) {
	if k.as.Retired(frame) {
		return
	}
	va, ok := k.as.VPageOf(frame)
	if !ok {
		// The page was unmapped (or swapped out) before the deferred
		// retirement ran; the frame is back in general circulation.
		// Forget its history rather than chase it.
		k.clearHealth(frame)
		return
	}
	sp := k.tr.Begin("kernel", "retire-page", telemetry.KV("frame", uint64(frame)))
	defer sp.End()
	// Watches on the doomed frame survive migration bit-for-bit (raw copy);
	// only the frame's watch record needs rekeying.
	wp := k.watches.Get(frameIndex(frame))
	old, fresh, err := k.as.RetirePage(va)
	if err != nil {
		// No spare frame (all pinned, swap exhausted): abandon this
		// retirement and keep running on the flaky frame. Clearing the
		// health history gives the bucket a fresh start instead of
		// retrying on every subsequent error.
		k.resStats.RetireFailures++
		k.clearHealth(frame)
		flight.Emit(flight.KindRetireFailed, "kernel", k.clock.Now(), "no spare frame; staying on flaky frame",
			flight.F("frame", uint64(frame)))
		return
	}
	movedWatches := make([]vm.VAddr, 0, bits.OnesCount64(wp.lines))
	if wp.lines != 0 {
		*k.watches.Slot(frameIndex(frame)) = watchPage{}
		*k.watches.Slot(frameIndex(fresh)) = wp
		for m := wp.lines; m != 0; m &= m - 1 {
			movedWatches = append(movedWatches, wp.vpage+vm.VAddr(bits.TrailingZeros64(m)*physmem.LineBytes))
		}
		k.resStats.WatchesMigrated += uint64(len(movedWatches))
	}
	k.clearHealth(old)
	k.resStats.PagesRetired++
	flight.Emit(flight.KindPageRetired, "kernel", k.clock.Now(), "flaky frame retired",
		flight.F("old_frame", uint64(old)),
		flight.F("new_frame", uint64(fresh)),
		flight.F("moved_watches", uint64(len(movedWatches))))
	if k.onRetire != nil {
		k.onRetire(old, fresh, movedWatches)
	}
}

// clearHealth drops the health history of every line in the frame.
func (k *Kernel) clearHealth(frame physmem.Addr) {
	for line := frame; line < frame+physmem.Addr(vm.PageBytes); line += physmem.LineBytes {
		delete(k.health, line)
	}
}
