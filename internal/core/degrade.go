// Graceful degradation under hardware faults.
//
// SafeMem's job is to keep a production run alive; a monitoring tool that
// kills the process because a DRAM cell went bad is worse than the bugs it
// hunts. This file turns every "impossible" watch-repair failure into a
// recorded DegradedEvent, quarantines lines whose hardware keeps faulting,
// and pauses corruption *arming* — never leak detection — while the
// machine-wide ECC error rate is above threshold. The ladder, mildest first:
//
//  1. Repair and re-arm: a hardware error on a watched line is repaired from
//     the private copy and the watch is re-armed at the kernel's next safe
//     point, preserving its confirmation clock.
//  2. Quarantine: after QuarantineThreshold faults on the same line, SafeMem
//     stops re-arming it; every further fault doubles the re-arm backoff.
//  3. Degraded mode: when the weighted machine-wide ECC event count crosses
//     DegradeErrorThreshold within DegradeWindow (an error storm), new
//     corruption watches — guard pads, freed extents, uninit probes — are
//     suppressed until the window passes. Leak bookkeeping and suspect
//     pruning continue unaffected: they need no new watches to stay sound,
//     only the ones already armed.
//  4. Degraded events: a kernel watch operation that still fails is recorded
//     (with the region's bookkeeping force-dropped so SafeMem's view stays
//     consistent) instead of panicking.

package safemem

import (
	"fmt"

	"safemem/internal/obsrv/flight"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// DegradedEvent records one monitoring capability SafeMem gave up to keep
// the program running: a failed watch operation, a quarantined line, or a
// machine-wide corruption-arming pause.
type DegradedEvent struct {
	Time   simtime.Cycles
	Op     string
	Addr   vm.VAddr
	Detail string
}

// String renders the event in the tool's log format.
func (e DegradedEvent) String() string {
	return fmt.Sprintf("[%s] degraded %s addr=%#x: %s", e.Time, e.Op, uint64(e.Addr), e.Detail)
}

// degradeUncorrectableWeight is how many window events one uncorrectable
// error contributes (mirrors the kernel's leaky-bucket weighting: a
// multi-bit error is much stronger evidence of failing hardware than a
// corrected single).
const degradeUncorrectableWeight = 4

// maxQuarantineBackoffShift caps the exponential re-arm backoff at
// QuarantineBackoff << maxQuarantineBackoffShift.
const maxQuarantineBackoffShift = 6

// quarantineEntry is the per-line hardware-error history.
type quarantineEntry struct {
	faults  uint64
	backoff simtime.Cycles
	until   simtime.Cycles
}

// windowEvent is one weighted ECC event in the machine-wide sliding window.
type windowEvent struct {
	at     simtime.Cycles
	weight int
}

// DegradedEvents returns every degradation event so far, in order.
func (t *Tool) DegradedEvents() []DegradedEvent {
	out := make([]DegradedEvent, len(t.degradedEvents))
	copy(out, t.degradedEvents)
	return out
}

// CorruptionDegraded reports whether corruption arming is currently paused
// by machine-wide error pressure.
func (t *Tool) CorruptionDegraded() bool { return t.corruptionDegraded() }

// degrade records one degradation event where the tool used to panic.
func (t *Tool) degrade(op string, addr vm.VAddr, detail string) {
	t.stats.DegradedEvents++
	t.degradedEvents = append(t.degradedEvents, DegradedEvent{
		Time:   t.m.Clock.Now(),
		Op:     op,
		Addr:   addr,
		Detail: detail,
	})
	t.tr.Instant("safemem", "degraded:"+op, telemetry.KV("addr", uint64(addr)))
	flight.Emit(flight.KindDegraded, "safemem", t.m.Clock.Now(), op+": "+detail,
		flight.F("addr", uint64(addr)))
}

// dropRegion force-removes r's bookkeeping after a failed kernel unwatch.
// The kernel may still hold (part of) the watch, but SafeMem must not keep
// believing a region is monitored when repairing it already failed once —
// a later fault on it would loop through the same failure.
func (t *Tool) dropRegion(r *watchRegion) {
	t.unindexLines(r)
	t.removeRegion(r)
}

// unwatchOrDegrade disables r, degrading (and force-dropping the
// bookkeeping) instead of panicking when the kernel call fails.
func (t *Tool) unwatchOrDegrade(r *watchRegion, fromSaved bool, op string) {
	if err := t.unwatch(r, fromSaved); err != nil {
		t.degrade(op, r.base, err.Error())
		t.dropRegion(r)
	}
}

// noteMachineError feeds one controller ECC event into the machine-wide
// degradation window. Crossing the threshold pauses corruption arming for
// one DegradeWindow; further events while paused extend the pause.
func (t *Tool) noteMachineError(uncorrectable bool) {
	now := t.m.Clock.Now()
	w := 1
	if uncorrectable {
		w = degradeUncorrectableWeight
	}
	t.hwWindow = append(t.hwWindow, windowEvent{at: now, weight: w})
	cut := 0
	for cut < len(t.hwWindow) && now-t.hwWindow[cut].at > t.opts.DegradeWindow {
		cut++
	}
	if cut > 0 {
		t.hwWindow = append(t.hwWindow[:0], t.hwWindow[cut:]...)
	}
	total := 0
	for _, e := range t.hwWindow {
		total += e.weight
	}
	if total < t.opts.DegradeErrorThreshold {
		return
	}
	if now >= t.degradedUntil {
		t.stats.DegradePeriods++
		t.degrade("corruption-arming-paused", 0,
			fmt.Sprintf("%d weighted ECC events within %s", total, t.opts.DegradeWindow))
	}
	t.degradedUntil = now + t.opts.DegradeWindow
}

// corruptionDegraded reports whether new corruption watches are suppressed.
func (t *Tool) corruptionDegraded() bool {
	return t.m.Clock.Now() < t.degradedUntil
}

// noteLineFault records a hardware error on a watched line and reports
// whether the line may be re-armed. Below QuarantineThreshold it may; at the
// threshold the line is quarantined, and every further fault doubles the
// re-arm backoff (the line's DRAM has demonstrated it cannot hold a watch).
func (t *Tool) noteLineFault(vline vm.VAddr) bool {
	now := t.m.Clock.Now()
	q := t.quarantine[vline]
	q.faults++
	rearm := int(q.faults) < t.opts.QuarantineThreshold
	if !rearm {
		if q.backoff == 0 {
			q.backoff = t.opts.QuarantineBackoff
			t.stats.LinesQuarantined++
			t.degrade("quarantine", vline,
				fmt.Sprintf("%d hardware faults on line; re-arm backed off %s", q.faults, q.backoff))
		} else if q.backoff < t.opts.QuarantineBackoff<<maxQuarantineBackoffShift {
			q.backoff *= 2
		}
		q.until = now + q.backoff
	}
	t.quarantine[vline] = q
	return rearm
}

// lineQuarantined reports whether any line of [base, base+size) is inside
// its quarantine backoff.
func (t *Tool) lineQuarantined(base vm.VAddr, size uint64) bool {
	now := t.m.Clock.Now()
	for line := base.LineAddr(); line < base+vm.VAddr(size); line += physmem.LineBytes {
		if q, ok := t.quarantine[line]; ok &&
			int(q.faults) >= t.opts.QuarantineThreshold && now < q.until {
			return true
		}
	}
	return false
}

// rearmAfterRepair re-arms a watch dropped by a hardware-error repair.
// WatchMemory cannot run inside the ECC interrupt (the controller is
// mid-read on the faulting line), so the re-arm is deferred to the kernel's
// next safe point. The confirmation clock (watchedAt) carries over: a leak
// suspect does not earn extra confirmation time because a DRAM cell
// hiccuped. If the kernel retires the faulty frame at the same safe point,
// retirement runs first and the re-arm lands on the migrated page.
func (t *Tool) rearmAfterRepair(old watchRegion) {
	t.m.Kern.Defer(func() {
		if t.lineWatched(old.base, old.size) {
			return // something else (realloc, a fresh watch) got there first
		}
		if t.lineQuarantined(old.base, old.size) {
			t.stats.RearmsSkipped++
			return
		}
		if old.kind != watchLeakSuspect && t.corruptionDegraded() {
			t.stats.RearmsSkipped++
			t.stats.WatchesSuppressed++
			return
		}
		if old.kind == watchLeakSuspect {
			// The suspect must still be the same live object: its slot
			// may since have been freed, or reused by a later allocation.
			oi, ok := t.objects[old.block.Addr]
			if old.obj < 0 || !ok || oi != old.obj {
				t.stats.RearmsSkipped++
				return
			}
			if obj := &t.objs[oi]; obj.block.Seq != old.block.Seq || obj.reported || obj.suspect >= 0 {
				t.stats.RearmsSkipped++
				return
			}
		}
		slot, err := t.watch(old.base, old.size, old.kind, &old.block, old.obj)
		if err != nil {
			t.degrade("rearm", old.base, err.Error())
			return
		}
		t.regions[slot].watchedAt = old.watchedAt
		if old.obj >= 0 {
			if obj := &t.objs[old.obj]; obj.suspect < 0 && !obj.reported {
				obj.suspect = slot
			}
		}
		t.stats.WatchesRearmed++
	})
}
