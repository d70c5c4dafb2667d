package safemem

import (
	"safemem/internal/heap"
	"safemem/internal/simtime"
)

// GroupKey identifies a memory-object group: the ⟨size, call-stack
// signature⟩ tuple of Section 3. Grouping needs no program semantics.
type GroupKey struct {
	Size uint64
	Site uint64
}

// object is SafeMem's per-live-object record, stored by value in
// Tool.objs and named by slot. Objects of a group form a doubly-linked list
// in allocation order, so the oldest objects — the only SLeak candidates —
// are found in O(1) (Section 3.2.2).
type object struct {
	// block is a copy of the object's heap block; its Seq tells a reused
	// slot's new object from the one that was freed.
	block heap.Block
	group int32
	// prev and next link the group's live list by object slot, -1 at the
	// ends.
	prev, next int32
	// allocTime is the object's (possibly reset) birth time; pruning a
	// false positive restarts the clock (Section 3.2.3).
	allocTime simtime.Cycles
	// suspect is the slot of the object's leak-suspect watch region, -1
	// while it has none.
	suspect int32
	// reported marks objects already reported as leaks.
	reported bool
	// flagged marks objects SuspectsFlagged has counted: a pass that
	// flags an object again (its watch refused, or pruned since) does not
	// count it twice.
	flagged bool
}

// group is the per-⟨size,site⟩ lifetime and usage record of Section 3.2.1.
type group struct {
	key GroupKey

	// Live-object list by object slot, oldest first; -1 when empty.
	head, tail int32
	liveCount  int

	// Lifetime information.
	maxLifetime   simtime.Cycles
	stableTime    simtime.Cycles
	lastUpdate    simtime.Cycles
	lastMaxChange simtime.Cycles // the group's WarmUpTime (Figure 3)

	// Memory usage information.
	lastAllocTime simtime.Cycles
	totalBytes    uint64
	totalAllocs   uint64
	frees         uint64

	// reported marks groups already reported as leaking, so each buggy
	// site produces one report.
	reported bool

	// suspendUntil pauses suspect-flagging for the group after one of its
	// suspects was exonerated by an access: the group is demonstrably in
	// use, so re-probing it every check would only buy watch/unwatch
	// traffic ("the pruning process... is only performed on rare
	// suspects", Section 3.2.3).
	suspendUntil simtime.Cycles
}

// everFreed reports whether any object of this group was ever deallocated —
// the ALeak/SLeak discriminator of Section 3.2.2.
func (g *group) everFreed() bool { return g.frees > 0 }

// appendObject adds object slot oi at the tail (newest end) of g's live
// list.
func (t *Tool) appendObject(g *group, oi int32) {
	obj := &t.objs[oi]
	obj.prev, obj.next = g.tail, -1
	if g.tail >= 0 {
		t.objs[g.tail].next = oi
	}
	g.tail = oi
	if g.head < 0 {
		g.head = oi
	}
	g.liveCount++
}

// removeObject unlinks object slot oi from g's live list.
func (t *Tool) removeObject(g *group, oi int32) {
	obj := &t.objs[oi]
	if obj.prev >= 0 {
		t.objs[obj.prev].next = obj.next
	} else {
		g.head = obj.next
	}
	if obj.next >= 0 {
		t.objs[obj.next].prev = obj.prev
	} else {
		g.tail = obj.prev
	}
	obj.prev, obj.next = -1, -1
	g.liveCount--
}

// recordDealloc folds one deallocation into the group's lifetime statistics
// (Section 3.2.1): within the tolerance band of the current maximum the
// stability clock accumulates; beyond it the maximum is raised and
// stability resets.
func (g *group) recordDealloc(now, lifetime simtime.Cycles, tolerance float64) {
	limit := simtime.Cycles(float64(g.maxLifetime) * (1 + tolerance))
	if g.maxLifetime == 0 || lifetime > limit {
		g.maxLifetime = lifetime
		g.stableTime = 0
		g.lastMaxChange = now
	} else {
		g.stableTime += now - g.lastUpdate
	}
	g.lastUpdate = now
	g.frees++
}

// GroupInfo is a read-only snapshot of one memory-object group, used by the
// Figure 3 lifetime-stability study and by reports.
type GroupInfo struct {
	Key           GroupKey
	LiveCount     int
	TotalAllocs   uint64
	Frees         uint64
	TotalBytes    uint64
	MaxLifetime   simtime.Cycles
	StableTime    simtime.Cycles
	LastMaxChange simtime.Cycles
	LastAllocTime simtime.Cycles
}

// WarmUpTime returns how long the group took to reach its stable maximal
// lifetime — the x-axis quantity of Figure 3.
func (gi GroupInfo) WarmUpTime() simtime.Cycles { return gi.LastMaxChange }
