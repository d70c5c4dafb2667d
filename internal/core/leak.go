package safemem

import (
	"cmp"
	"fmt"
	"slices"

	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// maybeCheckLeaks runs the periodic leak-detection pass (Section 3.2.2).
// It is called only from the allocation/deallocation wrappers: if the
// program is not allocating, its memory usage is not growing and no check
// is needed ("it is safe to perform the detection process only at memory
// allocation/deallocation time").
func (t *Tool) maybeCheckLeaks() {
	if !t.opts.DetectLeaks {
		return
	}
	now := t.m.Clock.Now()
	if now-t.startTime < t.opts.WarmupTime {
		return
	}
	if now-t.lastCheck < t.opts.CheckingPeriod {
		return
	}
	t.lastCheck = now
	t.stats.LeakChecks++
	sp := t.tr.Begin("safemem", "leak-check", telemetry.KV("groups", uint64(len(t.groups))))
	defer sp.End()
	t.m.Clock.Advance(costCheckBase + costCheckPerGroup*simtime.Cycles(len(t.groups)))

	for _, gi := range t.byKey {
		g := &t.groups[gi]
		if g.reported || now < g.suspendUntil {
			continue
		}
		if g.everFreed() {
			t.checkSLeak(g, now)
		} else {
			t.checkALeak(g, now)
		}
	}
	t.confirmSuspects()
}

// checkALeak applies the always-leak test: a never-freed group whose live
// population exceeds the threshold *and* whose memory usage is still
// growing (recent last allocation). Groups that allocated a large working
// set at initialisation and stopped growing are deliberately not flagged.
func (t *Tool) checkALeak(g *group, now simtime.Cycles) {
	if g.liveCount < t.opts.ALeakLiveThreshold {
		return
	}
	if now-g.lastAllocTime > t.opts.ALeakRecentWindow {
		return // not growing: likely an init-time working set
	}
	t.flagSuspects(g, now, 0)
}

// checkSLeak applies the sometimes-leak test of Section 3.2.2: only when
// the group's maximal lifetime has been stable long enough (condition 2)
// are the oldest objects compared against factor × maxLifetime
// (condition 1).
func (t *Tool) checkSLeak(g *group, now simtime.Cycles) {
	if g.stableTime < t.opts.SLeakStableTime {
		return // low confidence: no outliers singled out
	}
	limit := simtime.Cycles(t.opts.SLeakLifetimeFactor * float64(g.maxLifetime))
	if limit == 0 {
		return
	}
	t.flagSuspects(g, now, limit)
}

// flagSuspects walks the oldest live objects of g (the head of the
// allocation-ordered list) and flags up to MaxSuspectsPerGroup of them that
// had lived longer than minAge at the start of the check (0: any age). With
// pruning enabled each suspect is ECC-watched; without it (the Table 5
// "before pruning" configuration) the suspect is reported immediately.
func (t *Tool) flagSuspects(g *group, now, minAge simtime.Cycles) {
	checked := 0
	for oi := g.head; oi >= 0 && checked < t.opts.MaxSuspectsPerGroup; oi = t.objs[oi].next {
		obj := &t.objs[oi]
		checked++
		if obj.suspect >= 0 || obj.reported {
			continue
		}
		if minAge > 0 && now-obj.allocTime <= minAge {
			// The list is allocation-ordered, so once an old object fails
			// the lifetime condition, younger ones will too.
			break
		}
		t.stats.SuspectsFlagged++
		if !t.opts.PruneWithECC {
			t.reportLeak(g, obj)
			continue
		}
		if t.lineWatched(obj.block.Addr, obj.block.RoundedSize) {
			// Already covered (e.g. by an uninit watch): skip the object
			// without watching or marking it. A later pass tries again
			// once that watch is gone, as it does after the gate refuses.
			continue
		}
		if slot := t.arm(obj.block.Addr, obj.block.RoundedSize, watchLeakSuspect, &obj.block, oi, "arm-suspect"); slot >= 0 {
			obj.suspect = slot
		}
	}
}

// sortedSuspectRegions returns the slots of the leak-suspect watch regions
// aged past the confirmation window, in deterministic base-address order:
// confirmation emits reports and disarms watches (advancing the clock), so
// list order would leak into detection latencies and report order —
// unacceptable for reproducible runs (the campaign harness compares
// whole-run summaries byte for byte). Groups are walked in ⟨site, size⟩
// order (byKey) for the same reason. The result is scratch storage, valid
// until the next call.
func (t *Tool) sortedSuspectRegions(now simtime.Cycles) []int32 {
	out := t.confirm[:0]
	for _, slot := range t.live {
		r := &t.regions[slot]
		if r.kind == watchLeakSuspect && r.obj >= 0 && !t.objs[r.obj].reported &&
			now >= r.watchedAt && now-r.watchedAt >= t.opts.LeakConfirmTime {
			out = append(out, slot)
		}
	}
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(t.regions[a].base, t.regions[b].base) })
	t.confirm = out
	return out
}

// confirmSuspects reports watched suspects whose memory has stayed
// untouched for the confirmation window: the program had every chance to
// access them and never did. The clock is re-read here because the watch
// syscalls of this same pass advanced it past the time the pass started.
func (t *Tool) confirmSuspects() {
	for _, slot := range t.sortedSuspectRegions(t.m.Clock.Now()) {
		r := &t.regions[slot]
		obj := &t.objs[r.obj]
		t.reportLeak(&t.groups[obj.group], obj)
		t.unwatchOrDegrade(r, false, "unwatch-confirmed-leak")
	}
}

// reportLeak emits one leak report for the group (each buggy allocation
// site reports once) and marks the object.
func (t *Tool) reportLeak(g *group, obj *object) {
	obj.reported = true
	if g.reported {
		return
	}
	g.reported = true
	kind := BugALeak
	details := fmt.Sprintf("group ⟨size=%d,site=%#x⟩ has %d live objects and keeps growing, none ever freed",
		g.key.Size, g.key.Site, g.liveCount)
	if g.everFreed() {
		kind = BugSLeak
		details = fmt.Sprintf("object outlived %.1f× the stable maximal lifetime (%s) of group ⟨size=%d,site=%#x⟩ and was never accessed again",
			t.opts.SLeakLifetimeFactor, g.maxLifetime, g.key.Size, g.key.Site)
	}
	var latency simtime.Cycles
	if obj.suspect >= 0 {
		// Confirmation latency: time from flagging (and ECC-watching) the
		// suspect until the report.
		latency = t.m.Clock.Now() - t.regions[obj.suspect].watchedAt
	}
	t.report(BugReport{
		Kind:       kind,
		Latency:    latency,
		Addr:       obj.block.Addr,
		BufferAddr: obj.block.Addr,
		BufferSize: obj.block.Size,
		Site:       g.key.Site,
		Details:    details,
	})
}

// pruneSuspect exonerates a watched suspect that was just accessed
// (Section 3.2.3): monitoring stops, the object's allocation time restarts,
// and the group's expected maximal lifetime is raised to the object's
// current age so similar false positives stop arising.
func (t *Tool) pruneSuspect(r *watchRegion) {
	now := t.m.Clock.Now()
	oi := r.obj
	t.stats.SuspectsPruned++
	t.unwatchOrDegrade(r, false, "unwatch-pruned-suspect")
	if oi < 0 {
		return
	}
	obj := &t.objs[oi]
	g := &t.groups[obj.group]
	if g.everFreed() {
		// Raising the expected maximal lifetime to this suspect's age
		// naturally backs off future flagging in the group (§3.2.3).
		// lastMaxChange is deliberately NOT updated here: it records the
		// deallocation-driven warm-up statistic of the Section 3.1 study,
		// which predates (and is independent of) the pruning machinery.
		living := now - obj.allocTime
		if living > g.maxLifetime {
			g.maxLifetime = living
			g.stableTime = 0
			g.lastUpdate = now
		}
	} else {
		// Always-leak groups have no lifetime statistic to raise, so an
		// exonerated suspect would be re-flagged at the very next check.
		// Suspend flagging for the group instead: it is demonstrably in
		// use.
		g.suspendUntil = now + 4*t.opts.CheckingPeriod
	}
	obj.allocTime = now
	t.removeObject(g, oi)
	t.appendObject(g, oi)
}
