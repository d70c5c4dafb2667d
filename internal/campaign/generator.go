package campaign

import "safemem/internal/physmem"

// The generator's scenarios are template-instantiated, not free op soup:
// each bug and near-miss template is a strand of atomic blocks whose
// internal timing guarantees the detector's trigger (or non-trigger)
// condition by construction, which is what makes the oracle's expectations
// machine-checkable. Blocks from different strands interleave in random
// order (strand-internal order preserved); ops inside a block never
// interleave, so timing-sensitive sequences — free→use, flag→touch,
// plant→access — cannot be broken up by another strand's allocations.
//
// All times below are in cycles and sized against Tuning() — e.g. the
// 360_000-cycle aging advances exceed SLeakLifetimeFactor × the 150_000
// established lifetime, and the 310_000 closer advances exceed
// LeakConfirmTime — so every planted leak is flagged by the template's own
// trigger block and confirmed by the closers or the shutdown pass.

// Generation timing constants. Tuning() must agree with these; the
// generator test asserts the invariants between them.
const (
	genWarmup      = 210_000 // prologue advance; > Options.WarmupTime
	genChurnLife   = 150_000 // established stable lifetime for SLeak groups
	genAgeAdvance  = 360_000 // > SLeakLifetimeFactor*genChurnLife, > CheckingPeriod
	genCloseOut    = 310_000 // closer advance; > LeakConfirmTime
	genRecentGap   = 110_000 // > CheckingPeriod, < ALeakRecentWindow
	genALeakAllocs = 18      // phase-body allocations; +4 in the trigger block
)

// rng is a splitmix64 stream: tiny, seedable, and stable across Go
// releases — math/rand's algorithm is not part of its compatibility
// promise, and campaign seeds must mean the same scenario forever.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// subSeed derives the scenario seed for index i of a campaign, independent
// of sharding.
func subSeed(base uint64, i int) uint64 {
	r := rng{state: base ^ (uint64(i) * 0x9e3779b97f4a7c15)}
	return r.next()
}

// SubSeed is the exported sub-seed derivation, so external sweeps (the
// bench frontier experiment) enumerate exactly the scenarios a campaign
// with the same base seed would run.
func SubSeed(base uint64, i int) uint64 { return subSeed(base, i) }

// block is an atomic run of ops; strand blocks interleave, block ops do not.
type block []Op

// genState threads slot/site/strand counters through template builders.
type genState struct {
	r      *rng
	s      *Scenario
	slot   int
	site   uint64
	strand int
}

func (g *genState) newSlot() int { g.slot++; return g.slot - 1 }

// newSite returns a fresh call-site address. Site uniqueness is what lets
// the oracle match reports to plan entries; the interpreter brackets each
// allocation with Call(site)/Return() on an otherwise empty stack, so the
// callstack signature of a depth-1 stack is the site value itself.
func (g *genState) newSite() uint64 { g.site += 64; return g.site }

// Generate builds the scenario for one seed: a benign-churn strand, one to
// three bug strands, one to three near-miss strands, a warmup prologue and
// two confirmation closers.
func Generate(seed uint64) *Scenario {
	r := &rng{state: seed}
	g := &genState{r: r, s: &Scenario{Seed: seed}, site: 0x4000}

	bugTemplates := []func(*genState) []block{genALeak, genSLeak, genOverflow, genUnderflow, genUAF}
	missTemplates := []func(*genState) []block{genEdgeWrite, genReallocReuse, genPruneTouch, genHWMask, genErrorStorm, genFlakyLine}

	var strands [][]block
	strands = append(strands, genChurn(g))
	for _, i := range pick(r, len(bugTemplates), r.between(1, 3)) {
		strands = append(strands, bugTemplates[i](g))
	}
	for _, i := range pick(r, len(missTemplates), r.between(1, 3)) {
		strands = append(strands, missTemplates[i](g))
	}

	// The script is the prologue, every strand op and the six closer ops:
	// size it once.
	nops := 1 + 6
	for _, st := range strands {
		for _, b := range st {
			nops += len(b)
		}
	}
	g.s.Ops = make([]Op, 0, nops)

	// Prologue: pass the tool's warm-up window before any template body, so
	// every trigger block can rely on leak checks being live.
	g.s.Ops = append(g.s.Ops, Op{Kind: OpAdvance, Size: genWarmup, Strand: -1})

	// Random interleave, preserving per-strand block order.
	live := make([]int, len(strands))
	for i := range live {
		live[i] = i
	}
	next := make([]int, len(strands))
	for len(live) > 0 {
		k := r.intn(len(live))
		si := live[k]
		g.s.Ops = append(g.s.Ops, strands[si][next[si]]...)
		next[si]++
		if next[si] == len(strands[si]) {
			live = append(live[:k], live[k+1:]...)
		}
	}

	// Closers: two aged allocation pulses. The first fires a leak check at
	// least LeakConfirmTime after any flag set during the body (confirming
	// those suspects) and may flag stragglers; the second confirms the
	// stragglers. Shutdown's exit pass is the final backstop.
	for i := 0; i < 2; i++ {
		d := g.newSlot()
		g.s.Ops = append(g.s.Ops,
			Op{Kind: OpAdvance, Size: genCloseOut, Strand: -1},
			Op{Kind: OpAlloc, Slot: d, Size: 16, Site: g.newSite(), Strand: -1},
			Op{Kind: OpFree, Slot: d, Strand: -1},
		)
	}
	return g.s
}

// pick returns k distinct indices out of n, in random order.
func pick(r *rng, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	if k > n {
		k = n
	}
	return idx[:k]
}

// genChurn emits benign allocate-use-free traffic. Each object lives and
// dies inside its own atomic block, so no leak check can ever observe one
// older than its block's internal advance — provably unflaggable.
func genChurn(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	c := g.newSlot()
	var out []block
	for i, n := 0, g.r.between(3, 6); i < n; i++ {
		size := uint64(g.r.between(2, 60)) * 8
		out = append(out, block{
			{Kind: OpAlloc, Slot: c, Size: size, Site: site, Strand: st},
			{Kind: OpWrite, Slot: c, Off: 0, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
			{Kind: OpFree, Slot: c, Strand: st},
		})
	}
	return out
}

// genALeak plants an always-leak: a never-freed group pushed past the live
// threshold while still growing. The trigger block keeps the group's last
// allocation recent (genRecentGap < ALeakRecentWindow) when the aux
// allocation fires the check that flags the oldest objects.
func genALeak(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 32)) * 8
	var out []block
	for i := 0; i < genALeakAllocs; i++ {
		out = append(out, block{
			{Kind: OpAlloc, Slot: g.newSlot(), Size: size, Site: site, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 8_000)), Strand: st},
		})
	}
	trigger := block{}
	for i := 0; i < 4; i++ {
		trigger = append(trigger,
			Op{Kind: OpAlloc, Slot: g.newSlot(), Size: size, Site: site, Strand: st},
			Op{Kind: OpAdvance, Size: 20_000, Strand: st},
		)
	}
	aux := g.newSlot()
	trigger = append(trigger,
		Op{Kind: OpAdvance, Size: genRecentGap, Strand: st},
		Op{Kind: OpAlloc, Slot: aux, Size: 16, Site: g.newSite(), Strand: st},
		Op{Kind: OpFree, Slot: aux, Strand: st},
	)
	out = append(out, trigger)
	g.s.Plan = append(g.s.Plan, Planted{Kind: BugALeak, Site: site, Strand: st})
	return out
}

// sleakProlog emits the three equal-lifetime churn blocks that establish a
// stable maximal lifetime for site (stableTime accrues between the frees:
// 2 × genChurnLife > SLeakStableTime).
func sleakProlog(g *genState, st int, site uint64, size uint64) []block {
	c := g.newSlot()
	var out []block
	for i := 0; i < 3; i++ {
		out = append(out, block{
			{Kind: OpAlloc, Slot: c, Size: size, Site: site, Strand: st},
			{Kind: OpAdvance, Size: genChurnLife, Strand: st},
			{Kind: OpFree, Slot: c, Strand: st},
		})
	}
	return out
}

// genSLeak plants a sometimes-leak: after the stable-lifetime prologue one
// object is allocated and never freed or touched. The trigger block ages it
// past SLeakLifetimeFactor × lifetime and fires a check; the closers (or
// shutdown) confirm the untouched suspect.
func genSLeak(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 32)) * 8
	out := sleakProlog(g, st, site, size)
	out = append(out, block{
		{Kind: OpAlloc, Slot: g.newSlot(), Size: size, Site: site, Strand: st},
	})
	aux := g.newSlot()
	out = append(out, block{
		{Kind: OpAdvance, Size: genAgeAdvance, Strand: st},
		{Kind: OpAlloc, Slot: aux, Size: 16, Site: g.newSite(), Strand: st},
		{Kind: OpFree, Slot: aux, Strand: st},
	})
	g.s.Plan = append(g.s.Plan, Planted{Kind: BugSLeak, Site: site, Strand: st})
	return out
}

// genOverflow plants a write past the end of a buffer, landing inside the
// suffix guard line at a random 8-byte-aligned offset.
func genOverflow(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 120)) * 8
	v := g.newSlot()
	off := int64(roundLine(size)) + int64(g.r.intn(8))*8
	g.s.Plan = append(g.s.Plan, Planted{Kind: BugOverflow, Site: site, Strand: st})
	return []block{
		{
			{Kind: OpAlloc, Slot: v, Size: size, Site: site, Strand: st},
			{Kind: OpWrite, Slot: v, Off: 0, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
		},
		{
			{Kind: OpWrite, Slot: v, Off: off, Size: 8, Strand: st},
		},
		{
			{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 5_000)), Strand: st},
			{Kind: OpFree, Slot: v, Strand: st},
		},
	}
}

// genUnderflow plants a write before the start of a buffer, landing inside
// the prefix guard line.
func genUnderflow(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 120)) * 8
	v := g.newSlot()
	off := -64 + int64(g.r.intn(8))*8
	g.s.Plan = append(g.s.Plan, Planted{Kind: BugUnderflow, Site: site, Strand: st})
	return []block{
		{
			{Kind: OpAlloc, Slot: v, Size: size, Site: site, Strand: st},
			{Kind: OpWrite, Slot: v, Off: 0, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
		},
		{
			{Kind: OpWrite, Slot: v, Off: off, Size: 8, Strand: st},
		},
		{
			{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 5_000)), Strand: st},
			{Kind: OpFree, Slot: v, Strand: st},
		},
	}
}

// genUAF plants a use-after-free. Free and use share one atomic block so no
// other strand's allocation can reuse the freed extent (which would disarm
// the freed-region watch) in between.
func genUAF(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 60)) * 8
	u := g.newSlot()
	g.s.Plan = append(g.s.Plan, Planted{Kind: BugUAF, Site: site, Strand: st})
	return []block{
		{
			{Kind: OpAlloc, Slot: u, Size: size, Site: site, Strand: st},
			{Kind: OpWrite, Slot: u, Off: 0, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
		},
		{
			{Kind: OpFree, Slot: u, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(5_000, 40_000)), Strand: st},
			{Kind: OpRead, Slot: u, Off: 0, Size: 8, Strand: st},
		},
	}
}

// genEdgeWrite writes the last 8 in-bounds bytes of a buffer — one byte
// short of the guard line. Must stay silent.
func genEdgeWrite(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 120)) * 8
	e := g.newSlot()
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "edge-write", Site: site, Strand: st})
	return []block{{
		{Kind: OpAlloc, Slot: e, Size: size, Site: site, Strand: st},
		{Kind: OpWrite, Slot: e, Off: int64(size) - 8, Size: 8, Strand: st},
		{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
		{Kind: OpFree, Slot: e, Strand: st},
	}}
}

// genReallocReuse frees a buffer and immediately reallocates the same size:
// the second allocation may be carved from the freed (watched) extent, which
// must disarm the freed-region watch instead of reporting the reuse.
func genReallocReuse(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 60)) * 8
	y, y2 := g.newSlot(), g.newSlot()
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "realloc-reuse", Site: site, Strand: st})
	return []block{{
		{Kind: OpAlloc, Slot: y, Size: size, Site: site, Strand: st},
		{Kind: OpWrite, Slot: y, Off: 0, Size: 8, Strand: st},
		{Kind: OpFree, Slot: y, Strand: st},
		{Kind: OpAlloc, Slot: y2, Size: size, Site: site, Strand: st},
		{Kind: OpWrite, Slot: y2, Off: 0, Size: 8, Strand: st},
		{Kind: OpFree, Slot: y2, Strand: st},
	}}
}

// genPruneTouch builds a leak suspect that the program then touches: the
// aged elder is flagged by the check inside the block and immediately
// exonerated by the read — ECC-watch pruning in action, no report allowed.
// Flag, touch and free share one atomic block so no interleaved advance can
// push the suspect past the confirmation window first.
func genPruneTouch(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 32)) * 8
	out := sleakProlog(g, st, site, size)
	elder, d := g.newSlot(), g.newSlot()
	out = append(out, block{
		{Kind: OpAlloc, Slot: elder, Size: size, Site: site, Strand: st},
		{Kind: OpAdvance, Size: genAgeAdvance, Strand: st},
		{Kind: OpAlloc, Slot: d, Size: 16, Site: g.newSite(), Strand: st},
		{Kind: OpFree, Slot: d, Strand: st},
		{Kind: OpRead, Slot: elder, Off: 0, Size: 8, Strand: st},
		{Kind: OpFree, Slot: elder, Strand: st},
	})
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "prune-touch", Site: site, Strand: st})
	return out
}

// genHWMask plants a genuine double-bit hardware fault inside a watched
// suffix guard line, then writes past the end of the buffer. SafeMem must
// classify the fault as a hardware error (signature mismatch), repair the
// line and stay silent — the overflow is masked, and the oracle instead
// checks the hardware-error counter.
func genHWMask(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 60)) * 8
	h := g.newSlot()
	g.s.HWFaults++
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "hw-mask", Site: site, Strand: st})
	return []block{
		{
			{Kind: OpAlloc, Slot: h, Size: size, Site: site, Strand: st},
			{Kind: OpWrite, Slot: h, Off: 0, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
		},
		{
			{Kind: OpHWFault, Slot: h, Strand: st},
			{Kind: OpWrite, Slot: h, Off: int64(roundLine(size)), Size: 8, Strand: st},
		},
		{
			{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 5_000)), Strand: st},
			{Kind: OpFree, Slot: h, Strand: st},
		},
	}
}

// genErrorStorm is a burst of correctable single-bit faults in a buffer's
// interior — never-watched words — each resolved by a read. The controller
// corrects every one on the fly; SafeMem must stay silent (no report, no
// hardware-repair count) while the oracle checks the corrected-error
// counter. This is background radiation, not a bug.
func genErrorStorm(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(16, 56)) * 8
	e := g.newSlot()
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "error-storm", Site: site, Strand: st})
	out := []block{{
		{Kind: OpAlloc, Slot: e, Size: size, Site: site, Strand: st},
		{Kind: OpWrite, Slot: e, Off: 0, Size: size, Strand: st},
		{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
	}}
	for i, n := 0, g.r.between(4, 8); i < n; i++ {
		off := int64(g.r.intn(int(size/8))) * 8
		out = append(out, block{
			{Kind: OpCEFault, Slot: e, Off: off, Strand: st},
			{Kind: OpRead, Slot: e, Off: off, Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 4_000)), Strand: st},
		})
	}
	out = append(out, block{
		{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 5_000)), Strand: st},
		{Kind: OpFree, Slot: e, Strand: st},
	})
	return out
}

// genFlakyLine is an intermittent fault on a watched guard line: the same
// pad takes an uncorrectable double-bit hit three times, each discovered by
// a pad write. SafeMem must classify every hit as hardware (repair, no bug
// report), re-arm the guard after the first two, and quarantine the line at
// the third — the stock QuarantineThreshold — all without a single
// corruption report. The oracle's hardware accounting (plants == repairs)
// pins that the re-armed watches kept attributing faults correctly.
func genFlakyLine(g *genState) []block {
	st := g.strand
	g.strand++
	site := g.newSite()
	size := uint64(g.r.between(2, 60)) * 8
	fl := g.newSlot()
	g.s.Misses = append(g.s.Misses, NearMiss{Name: "flaky-line", Site: site, Strand: st})
	out := []block{{
		{Kind: OpAlloc, Slot: fl, Size: size, Site: site, Strand: st},
		{Kind: OpWrite, Slot: fl, Off: 0, Size: 8, Strand: st},
		{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 10_000)), Strand: st},
	}}
	for i := 0; i < 3; i++ {
		g.s.HWFaults++
		out = append(out, block{
			{Kind: OpHWFault, Slot: fl, Strand: st},
			// One aligned 8-byte store: a single access discovers the fault,
			// and the deferred re-arm lands only after it completes.
			{Kind: OpWrite, Slot: fl, Off: int64(roundLine(size)), Size: 8, Strand: st},
			{Kind: OpAdvance, Size: uint64(g.r.between(2_000, 8_000)), Strand: st},
		})
	}
	out = append(out, block{
		{Kind: OpAdvance, Size: uint64(g.r.between(1_000, 5_000)), Strand: st},
		{Kind: OpFree, Slot: fl, Strand: st},
	})
	return out
}

// roundLine rounds n up to the cache-line size (the allocator's rounding,
// so base+roundLine(size) is the first guard-line byte).
func roundLine(n uint64) uint64 {
	return (n + physmem.LineBytes - 1) &^ uint64(physmem.LineBytes-1)
}
