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
//     corruption watches — guard pads, freed extents, uninit probes, and
//     their re-arms — are suppressed until the window passes. Leak
//     bookkeeping and suspect pruning continue unaffected: they need no new
//     watches to stay sound, only the ones already armed.
//  4. Degraded events: a kernel watch operation that still fails is recorded
//     (with the region's bookkeeping force-dropped so SafeMem's view stays
//     consistent) instead of panicking.
//
// Rungs 2 and 3 are applied in one place, the arming gate (arm), which every
// watch arm and re-arm passes. A quarantined line refuses a region of any
// kind; an arming pause refuses every kind but leak suspects; a refusal is
// counted by reason, quarantine first when both hold. Scoping a quarantine to
// the allocation that earned it is thus a change to the gate alone; it moves
// the seed-1 campaign, campaign-storm and fleet digests, so it lands with a
// re-recorded benchmark/digests.json.

package safemem

import (
	"fmt"

	"safemem/internal/heap"
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
// bookkeeping) instead of panicking when the kernel call fails, and reports
// whether the kernel call succeeded.
func (t *Tool) unwatchOrDegrade(r *watchRegion, fromSaved bool, op string) bool {
	if err := t.unwatch(r, fromSaved); err != nil {
		t.degrade(op, r.base, err.Error())
		t.dropRegion(r)
		return false
	}
	return true
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

// refusal names why the arming gate refused a watch.
type refusal uint8

const (
	refusedQuarantine refusal = iota // a line of the region is quarantined
	refusedPause                     // corruption arming is paused
)

// refuse counts one watch the degradation policy refused.
func (t *Tool) refuse(why refusal) {
	if why == refusedQuarantine {
		t.stats.WatchesSuppressedQuarantine++
	} else {
		t.stats.WatchesSuppressedPaused++
	}
}

// arm is the arming gate: it watches [base, base+size) as kind, as watch
// does, unless the degradation policy refuses. It returns the slot, or -1
// when refused or when the kernel call fails (recorded as a degradation
// under op instead of failing).
func (t *Tool) arm(base vm.VAddr, size uint64, kind watchKind, blk *heap.Block, obj int32, op string) int32 {
	if t.lineQuarantined(base, size) {
		t.refuse(refusedQuarantine)
		return -1
	}
	if kind != watchLeakSuspect && t.corruptionDegraded() {
		t.refuse(refusedPause)
		return -1
	}
	slot, err := t.watch(base, size, kind, blk, obj)
	if err != nil {
		t.degrade(op, base, err.Error())
	}
	return slot
}

// rearm re-arms a saved region through the gate after a hardware-error
// repair or a scrub pass, unless it went stale: its lines are watched again
// (a realloc or a fresh watch got there first), or its leak suspect was
// since freed, its slot reused by a later allocation, or reported. The
// watch keeps its confirmation clock (watchedAt) and its suspect link.
// Every re-arm that does not happen counts in RearmsSkipped.
func (t *Tool) rearm(old *watchRegion, op string) bool {
	slot := int32(-1)
	if !t.stale(old) {
		slot = t.arm(old.base, old.size, old.kind, &old.block, old.obj, op)
	}
	if slot < 0 {
		t.stats.RearmsSkipped++
		return false
	}
	t.regions[slot].watchedAt = old.watchedAt
	if old.obj >= 0 {
		t.objs[old.obj].suspect = slot
	}
	return true
}

// stale reports whether a saved region no longer needs re-arming. Only leak
// suspects carry an object slot.
func (t *Tool) stale(old *watchRegion) bool {
	if old.obj < 0 {
		return t.lineWatched(old.base, old.size)
	}
	oi, ok := t.objects[old.block.Addr]
	obj := &t.objs[old.obj]
	return t.lineWatched(old.base, old.size) || !ok || oi != old.obj ||
		obj.block.Seq != old.block.Seq || obj.reported || obj.suspect >= 0
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
		if t.rearm(&old, "rearm") {
			t.stats.WatchesRearmed++
		}
	})
}
