package safemem

import (
	"cmp"
	"slices"
	"testing"

	"safemem/internal/heap"
	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// block returns the allocator's record of the live buffer at p.
func (r *testRig) block(t *testing.T, p vm.VAddr) heap.Block {
	t.Helper()
	b, ok := r.alloc.BlockAt(p)
	if !ok {
		t.Fatalf("no live block at %#x", uint64(p))
	}
	return *b
}

func (r *testRig) free(t *testing.T, p vm.VAddr) {
	t.Helper()
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
}

// flag flags the live object at p as a leak suspect, arming its watch.
func (r *testRig) flag(p vm.VAddr) {
	tool := r.tool
	g := &tool.groups[tool.objs[tool.objects[p]].group]
	tool.flagSuspects(g, r.m.Clock.Now(), 0)
}

// quarantineLines puts every line of [base, base+size) inside a long
// quarantine backoff.
func (r *testRig) quarantineLines(base vm.VAddr, size uint64) {
	tool := r.tool
	for line := base.LineAddr(); line < base+vm.VAddr(size); line += physmem.LineBytes {
		tool.quarantine[line] = quarantineEntry{
			faults: uint64(tool.opts.QuarantineThreshold),
			until:  r.m.Clock.Now() + 1<<40,
		}
	}
}

// extent is an address range [base, base+size).
type extent struct {
	base vm.VAddr
	size uint64
}

// armSite is one of SafeMem's arming sites. setup prepares the rig and
// returns the buffer fire works on, the region the site arms and the lines
// to quarantine; fire then runs the site with the degradation condition in
// place.
type armSite struct {
	name    string
	opts    func(*Options)
	setup   func(t *testing.T, r *testRig) (p vm.VAddr, watch, bad extent)
	fire    func(t *testing.T, r *testRig, p vm.VAddr)
	rearm   bool
	suspect bool
}

func TestArmingGatePolicy(t *testing.T) {
	corruption := func(o *Options) { o.DetectLeaks = false }
	uninit := func(o *Options) { o.DetectLeaks, o.DetectCorruption, o.DetectUninitRead = false, false, true }
	leaks := func(o *Options) { o.DetectCorruption = false }

	// A fresh allocation site is fired on a freed 64-byte buffer's address:
	// the allocator hands the same block to the next allocation of that
	// size, so the lines to quarantine are known beforehand.
	reused := func(t *testing.T, r *testRig) heap.Block {
		p := r.malloc(t, 64)
		b := r.block(t, p)
		r.free(t, p)
		return b
	}
	realloc := func(t *testing.T, r *testRig, p vm.VAddr) {
		if q := r.malloc(t, 64); q != p {
			t.Fatalf("allocator did not reuse %#x (got %#x)", uint64(p), uint64(q))
		}
	}
	// A hardware error on the region's first line: repaired, and the
	// re-arm deferred to the safe point after the access.
	repair := func(t *testing.T, r *testRig, base vm.VAddr) {
		breakLine(t, r, base)
		_ = r.m.Load8(base)
		if r.tool.Stats().HardwareErrors != 1 {
			t.Fatal("the planted error was not repaired")
		}
	}
	scrub := func(t *testing.T, r *testRig, _ vm.VAddr) {
		r.tool.scrubBefore()
		r.tool.scrubAfter()
	}

	sites := []armSite{
		{name: "pad-before", opts: corruption,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				b := reused(t, r)
				return b.Addr, extent{b.PadBefore(), PadLineBytes}, extent{b.FullAddr, b.FullSize}
			},
			fire: realloc},
		{name: "pad-after", opts: corruption,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				b := reused(t, r)
				return b.Addr, extent{b.PadAfter(), PadLineBytes}, extent{b.FullAddr, b.FullSize}
			},
			fire: realloc},
		{name: "uninit", opts: uninit,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				b := reused(t, r)
				return b.Addr, extent{b.Addr, b.RoundedSize}, extent{b.Addr, b.RoundedSize}
			},
			fire: realloc},
		{name: "freed", opts: corruption,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 64)
				b := r.block(t, p)
				return p, extent{b.FullAddr, b.FullSize}, extent{b.Addr, b.RoundedSize}
			},
			fire: func(t *testing.T, r *testRig, p vm.VAddr) { r.free(t, p) }},
		{name: "suspect", opts: leaks, suspect: true,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 128)
				return p, extent{p, 128}, extent{p + 64, 64}
			},
			fire: func(_ *testing.T, r *testRig, p vm.VAddr) { r.flag(p) }},
		{name: "rearm-after-repair/freed", opts: corruption, rearm: true,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 64)
				b := r.block(t, p)
				r.free(t, p)
				// Quarantine the last line: the repaired first line is below
				// QuarantineThreshold, so the deferred re-arm reaches the gate.
				return b.FullAddr, extent{b.FullAddr, b.FullSize}, extent{b.PadAfter(), PadLineBytes}
			},
			fire: repair},
		{name: "rearm-after-repair/suspect", opts: leaks, rearm: true, suspect: true,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 128)
				r.flag(p)
				return p, extent{p, 128}, extent{p + 64, 64}
			},
			fire: repair},
		{name: "rearm-after-scrub/pads", opts: corruption, rearm: true,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 64)
				b := r.block(t, p)
				return p, extent{b.PadAfter(), PadLineBytes}, extent{b.FullAddr, b.FullSize}
			},
			fire: scrub},
		{name: "rearm-after-scrub/suspect", opts: leaks, rearm: true, suspect: true,
			setup: func(t *testing.T, r *testRig) (vm.VAddr, extent, extent) {
				p := r.malloc(t, 128)
				r.flag(p)
				return p, extent{p, 128}, extent{p + 64, 64}
			},
			fire: scrub},
	}

	// The policy: a quarantined line refuses every kind, an arming pause
	// every kind but leak suspects, and a refusal under both is counted as
	// quarantine.
	conds := []struct {
		name              string
		quarantine, pause bool
		corruption, leak  string // "armed", or the reason counter that moves
	}{
		{"quarantined", true, false, "quarantine", "quarantine"},
		{"paused", false, true, "paused", "armed"},
		{"both", true, true, "quarantine", "quarantine"},
	}

	for _, site := range sites {
		for _, c := range conds {
			t.Run(site.name+"/"+c.name, func(t *testing.T) {
				opts := DefaultOptions()
				site.opts(&opts)
				r := newTool(t, opts)
				p, watch, bad := site.setup(t, r)
				if c.quarantine {
					r.quarantineLines(bad.base, bad.size)
				}
				if c.pause {
					r.tool.degradedUntil = r.m.Clock.Now() + 1<<40
				}
				before := r.tool.Stats()
				site.fire(t, r, p)
				after := r.tool.Stats()

				want := c.corruption
				if site.suspect {
					want = c.leak
				}
				dq := after.WatchesSuppressedQuarantine - before.WatchesSuppressedQuarantine
				dp := after.WatchesSuppressedPaused - before.WatchesSuppressedPaused
				skipped := after.RearmsSkipped - before.RearmsSkipped
				if armed := r.tool.Watched(watch.base, watch.size); armed != (want == "armed") {
					t.Fatalf("armed = %v, want %s", armed, want)
				}
				switch want {
				case "armed":
					if dq != 0 || dp != 0 || skipped != 0 {
						t.Fatalf("armed watch counted: quarantine +%d, paused +%d, rearms skipped +%d", dq, dp, skipped)
					}
				case "quarantine":
					if dq == 0 || dp != 0 {
						t.Fatalf("quarantine +%d, paused +%d; want only quarantine to move", dq, dp)
					}
				case "paused":
					if dp == 0 || dq != 0 {
						t.Fatalf("quarantine +%d, paused +%d; want only paused to move", dq, dp)
					}
				}
				if site.rearm && (want != "armed") != (skipped > 0) {
					t.Fatalf("rearms skipped +%d for a re-arm that was %s", skipped, want)
				}
				if err := r.tool.CheckWatchInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScrubRearmRestoresEveryWatch pins the scrub path through the gate: with
// no quarantine and no pause, every region unwatched for the scrub comes
// back with its kind, extent, buffer, object and confirmation clock, every
// suspect link points at its re-armed region, and nothing is counted as
// skipped or suppressed — the staleness checks never fire there, because no
// program op runs between unwatchAll and the re-arm.
func TestScrubRearmRestoresEveryWatch(t *testing.T) {
	opts := DefaultOptions()
	opts.DetectUninitRead = true
	r := newTool(t, opts)

	var live []vm.VAddr
	for i := 0; i < 24; i++ {
		p := r.malloc(t, uint64(64*(1+i%3)))
		if i%4 != 0 {
			r.m.Store64(p, uint64(i)) // initialised: the uninit watch goes
		}
		live = append(live, p)
		r.m.Compute(500)
	}
	for i := 0; i < len(live); i += 5 {
		r.free(t, live[i])
	}
	for i := 1; i < len(live); i += 5 {
		r.flag(live[i])
	}
	r.m.Compute(5000)

	type watch struct {
		base      vm.VAddr
		size      uint64
		kind      watchKind
		block     heap.Block
		obj       int32
		watchedAt uint64
	}
	snapshot := func() ([]watch, map[int32]vm.VAddr) {
		var ws []watch
		for _, slot := range r.tool.live {
			reg := &r.tool.regions[slot]
			ws = append(ws, watch{reg.base, reg.size, reg.kind, reg.block, reg.obj, uint64(reg.watchedAt)})
		}
		slices.SortFunc(ws, func(a, b watch) int { return cmp.Compare(a.base, b.base) })
		links := map[int32]vm.VAddr{}
		for oi := range r.tool.objs {
			if s := r.tool.objs[oi].suspect; s >= 0 {
				links[int32(oi)] = r.tool.regions[s].base
			}
		}
		return ws, links
	}

	before, beforeLinks := snapshot()
	kinds := map[watchKind]bool{}
	for _, w := range before {
		kinds[w.kind] = true
	}
	for _, k := range []watchKind{watchPadBefore, watchPadAfter, watchFreed, watchLeakSuspect, watchUninit} {
		if !kinds[k] {
			t.Fatalf("rig arms no %v watch", k)
		}
	}
	st := r.tool.Stats()

	r.tool.scrubBefore()
	if len(r.tool.live) != 0 {
		t.Fatalf("%d watches left during the scrub", len(r.tool.live))
	}
	r.tool.scrubAfter()

	after, afterLinks := snapshot()
	if !slices.Equal(before, after) {
		t.Fatalf("scrub re-arm changed the watches:\nbefore %+v\nafter  %+v", before, after)
	}
	if len(afterLinks) != len(beforeLinks) {
		t.Fatalf("suspect links: %d before, %d after", len(beforeLinks), len(afterLinks))
	}
	for oi, base := range beforeLinks {
		if afterLinks[oi] != base {
			t.Fatalf("object %d's suspect link moved from %#x to %#x", oi, uint64(base), uint64(afterLinks[oi]))
		}
	}
	if got := r.tool.Stats(); got.RearmsSkipped != st.RearmsSkipped ||
		got.WatchesSuppressedQuarantine != st.WatchesSuppressedQuarantine ||
		got.WatchesSuppressedPaused != st.WatchesSuppressedPaused || got.DegradedEvents != st.DegradedEvents {
		t.Fatalf("scrub re-arm counted skips: before %+v, after %+v", st, got)
	}
	if err := r.tool.CheckWatchInvariants(); err != nil {
		t.Fatal(err)
	}
}
