// Batched access fast lane.
//
// The per-access path (Load/Store in machine.go) pays monitor fan-out,
// in-flight bookkeeping, a translate call, a cache lookup and the
// deferred-work gate on every single access — ~14 host-ns even when the
// access is a TLB-hit cache-hit that moves one byte. Straight-line runs
// (copy loops, match loops, table scans, checksums) repeat that work for
// accesses whose outcome is identical.
//
// RunAccesses and the LoadRun/StoreRun/LoadByteRun/StoreByteRun/CopyRun/
// CompareRun conveniences (and Memset and Memcpy, built on them) execute
// such runs with the checks hoisted to batch granularity:
//
//   - translation is resolved once per page window (vm.TranslateRun) and
//     protection checked against it, instead of a translate call per
//     access;
//   - the cache line is probed once per line (cache.OpenLine) and data
//     moves directly against the resident line, instead of a full lookup
//     per access;
//   - accounting is committed in bulk. The span engine behind the
//     contiguous single-stream runs (contiguous LoadRun/StoreRun,
//     LoadByteRun, StoreByteRun, Memset) commits each kind of state only
//     as often as it must: the LRU stamp once per line, the page touch
//     once per page window, and stats, instructions and one clock Advance
//     once per run (spanRun). RunAccesses, strided runs and the
//     dual-stream CopyRun and CompareRun settle one line segment at a time
//     (segFlush, segFlushPair);
//   - the wake horizon (simtime.Clock.Headroom) bounds every deferred
//     charge, so no timer deadline can fall inside a batched commit.
//
// The lane is a pure host-side optimisation: simulated semantics are
// bit-identical to issuing the same accesses through Load/Store, pinned by
// TestBatchEquivalence and FuzzMachineDifferential here,
// the Reference sweep in internal/campaign (TestBatchLaneEquivalence and
// friends: every app and whole campaigns against Config.Reference machines), and the unchanged golden
// tables.
// Anything interesting bails to the exact per-access slow path; the full
// entry/bail-out matrix is documented in DESIGN.md §4.10. In brief, an
// access leaves the fast lane when:
//
//   - a per-access monitor is attached (Purify, MMP, the trace recorder):
//     the whole run is served by Load/Store so every callback fires;
//   - the machine was built with Config.Reference;
//   - kernel deferred work is pending (the slow access drains it at the
//     same boundary the per-access path would);
//   - the next wake deadline is too close to fit even one batched access;
//   - the page is unmapped or swapped out, or its protection forbids the
//     access (the slow path raises or resolves the fault);
//   - the cache line is not resident — misses, and with them every
//     ECC-watched or scrambled line, run the ordinary miss fill so faults,
//     bug reports and AccessInFlight behave exactly as unbatched;
//   - the access crosses an ECC-group boundary (the slow path panics with
//     the same diagnostic).
//
// After any slow access the lane drops its windows and re-derives them:
// the access may have swapped pages, retired frames, fired timers or
// flushed lines.
package machine

import (
	"encoding/binary"
	"math/bits"

	"safemem/internal/cache"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// lineBytesLE extracts n bytes (1..8) little-endian from a line's group
// array starting at byte offset off; off+n must not exceed the line. Used by
// CompareRun to compare up to eight byte pairs per host step, and by
// LoadByteRun to extract eight bytes per host step.
func lineBytesLE(w *[8]uint64, off, n uint64) uint64 {
	g, b := off>>3, off&7
	v := w[g] >> (b * 8)
	if b+n > 8 {
		v |= w[g+1] << ((8 - b) * 8)
	}
	if n < 8 {
		v &= 1<<(n*8) - 1
	}
	return v
}

// batchLane is the machine's fast-lane state: host-side counters (outside
// Stats, like the TLB counters — they describe the simulator, not the
// simulated machine, and must not perturb goldens) and the persistent run
// segments. Machine.Recycle resets all of it so a pooled machine can never
// leak a stale batch window across tenants.
type batchLane struct {
	runs    uint64 // batched runs entered through the lane
	fastOps uint64 // accesses served in-segment
	slowOps uint64 // accesses that bailed to the per-access path

	// Persistent run segments, reused across runs. Windows left open at the
	// end of a run stay valid for the next one as long as neither the cache
	// residency epoch nor the translation epoch has moved (laneSegs checks);
	// consecutive runs over the same lines (gzip's match/hash loops) then
	// skip the translate and line probe entirely.
	a, b       runSeg
	cacheEpoch uint64
	vmEpoch    uint64
}

// BatchStats returns the host-side fast-lane counters: batched runs
// entered, accesses served in-segment, and accesses that fell back to the
// per-access slow path.
func (m *Machine) BatchStats() (runs, fastOps, slowOps uint64) {
	return m.batch.runs, m.batch.fastOps, m.batch.slowOps
}

// laneOK reports whether batched runs may use the fast lane right now.
// Attached monitors demand per-access callbacks, so any monitor forces the
// whole run through Load/Store, as does a Reference machine.
func (m *Machine) laneOK() bool {
	return len(m.monitors) == 0 && !m.reference
}

// perAccessHitCost is the exact cycle charge of one TLB-hit cache-hit
// access on the per-access path: the instruction itself plus the cache hit.
const perAccessHitCost = simtime.CostInstr + simtime.CostCacheHit

// runSeg is the open fast-lane window of one access stream: a page window
// (translation hoisted to page granularity) containing an open line segment
// (cache probe hoisted to line granularity) with uncommitted access counts.
// Dual-stream runs (CopyRun, CompareRun) hold one runSeg per stream.
type runSeg struct {
	page   vm.PageRef
	pageVA vm.VAddr
	pageOK bool

	line   cache.LineRef
	lineVA vm.VAddr
	lineOK bool

	// Uncommitted in-segment accesses, settled by segFlush.
	loads  uint64
	stores uint64

	// budget is the remaining accesses runOp may batch before the wake
	// horizon could be reached (single-stream runs only; dual-stream runs
	// budget per chunk instead).
	budget uint64
}

// segFlush commits the open line segment: the counter, clock, cache-LRU and
// translate accounting that n per-access hits would have produced, settled
// in one step. The single Advance cannot fire a wake — every path that
// accumulates ops bounds them by the headroom measured when the segment
// opened.
func (m *Machine) segFlush(seg *runSeg) {
	if n := seg.loads + seg.stores; n > 0 {
		m.stats.Loads += seg.loads
		m.stats.Stores += seg.stores
		m.instrs += n
		m.Cache.CommitRun(seg.line, n)
		seg.page.TouchRun(n)
		seg.loads, seg.stores = 0, 0
		m.Clock.Advance(simtime.Cycles(n) * perAccessHitCost)
	}
}

// segFlushPair commits two segments of a dual-stream run — first in access
// order, then second — folding both cycle charges into one Advance. The
// commit order (first before second) is what preserves the interleaved
// stream's relative LRU and touch stamps.
func (m *Machine) segFlushPair(first, second *runSeg) {
	na := first.loads + first.stores
	nb := second.loads + second.stores
	if na > 0 {
		m.stats.Loads += first.loads
		m.stats.Stores += first.stores
		m.instrs += na
		m.Cache.CommitRun(first.line, na)
		first.page.TouchRun(na)
		first.loads, first.stores = 0, 0
	}
	if nb > 0 {
		m.stats.Loads += second.loads
		m.stats.Stores += second.stores
		m.instrs += nb
		m.Cache.CommitRun(second.line, nb)
		second.page.TouchRun(nb)
		second.loads, second.stores = 0, 0
	}
	if n := na + nb; n > 0 {
		m.Clock.Advance(simtime.Cycles(n) * perAccessHitCost)
	}
}

// segReset flushes and additionally drops the segment's windows and wake
// budget.
func (m *Machine) segReset(seg *runSeg) {
	m.segFlush(seg)
	seg.pageOK = false
	seg.lineOK = false
	seg.budget = 0
}

// laneReset commits and drops BOTH persistent segments. Required before any
// slow-path access or fired wake: the access may change any translation,
// cache or timer state either window caches, including windows left open by
// a previous run.
func (m *Machine) laneReset() {
	m.segReset(&m.batch.a)
	m.segReset(&m.batch.b)
}

// laneSegs returns the machine's persistent run segments, revalidated
// against the cache-residency and translation epochs: when neither epoch has
// moved since the last run ended, any still-open windows are provably intact
// and the new run resumes without re-probing; otherwise both segments are
// dropped. Wake budgets never persist — simulated time advances between
// runs, so headroom must be re-measured.
func (m *Machine) laneSegs() (*runSeg, *runSeg) {
	a, b := &m.batch.a, &m.batch.b
	if ce, ve := m.Cache.Epoch(), m.AS.Epoch(); m.batch.cacheEpoch != ce || m.batch.vmEpoch != ve {
		*a = runSeg{}
		*b = runSeg{}
		m.batch.cacheEpoch, m.batch.vmEpoch = ce, ve
	} else {
		a.budget, b.budget = 0, 0
	}
	return a, b
}

// laneExit re-snapshots the epochs after a run: windows still open now were
// (re)derived after the run's last cache or translation mutation, so they
// remain trustworthy at the next laneSegs with these epoch values.
func (m *Machine) laneExit() {
	m.batch.cacheEpoch, m.batch.vmEpoch = m.Cache.Epoch(), m.AS.Epoch()
}

// openWindow ensures seg's page and line windows cover an access at va in
// the given direction, opening or switching them as needed (committing the
// previous segment first). false means the access must take the slow path:
// pending kernel work, an unmapped/swapped page, a protection violation, or
// a non-resident line.
func (m *Machine) openWindow(seg *runSeg, va vm.VAddr, write bool) bool {
	if m.Kern.WorkPending() {
		// The per-access path drains deferred work after every access; a
		// slow access here preserves that boundary exactly.
		return false
	}
	pageVA := va.PageAddr()
	if !seg.pageOK || seg.pageVA != pageVA {
		if seg.loads|seg.stores != 0 {
			m.segFlush(seg)
		}
		seg.lineOK = false
		pr, ok := m.AS.TranslateRun(va)
		if !ok {
			return false
		}
		seg.page, seg.pageVA, seg.pageOK = pr, pageVA, true
	}
	need := vm.ProtRead
	if write {
		need = vm.ProtWrite
	}
	if seg.page.Prot&need == 0 {
		return false
	}
	lineVA := va.LineAddr()
	if !seg.lineOK || seg.lineVA != lineVA {
		if seg.loads|seg.stores != 0 {
			m.segFlush(seg)
		}
		seg.lineOK = false
		lr, ok := m.Cache.OpenLine(seg.page.Frame + physmem.Addr(uint64(lineVA-seg.pageVA)))
		if !ok {
			return false
		}
		seg.line, seg.lineVA, seg.lineOK = lr, lineVA, true
	}
	return true
}

// wakeBudget returns how many batched accesses fit strictly before the next
// wake deadline, given costPerAccess cycles each (effectively unlimited
// when no timer is armed).
func (m *Machine) wakeBudget(costPerAccess simtime.Cycles) uint64 {
	if h, bounded := m.Clock.Headroom(); bounded {
		return uint64(h / costPerAccess)
	}
	return ^uint64(0)
}

// pairBudget returns how many more dual-stream elements (two accesses each)
// fit strictly before the next wake deadline, counting both segments'
// uncommitted accesses against the headroom. When the pending charges alone
// exhaust it, the pair is committed — advancing the clock — and the horizon
// re-measured.
func (m *Machine) pairBudget(first, second *runSeg) uint64 {
	h, bounded := m.Clock.Headroom()
	if !bounded {
		return ^uint64(0)
	}
	pend := simtime.Cycles(first.loads+first.stores+second.loads+second.stores) * perAccessHitCost
	if h <= pend {
		m.segFlushPair(first, second)
		h, _ = m.Clock.Headroom()
		pend = 0
	}
	return uint64((h - pend) / (2 * perAccessHitCost))
}

// runOp performs one access of a batched run: in-segment when the open
// window covers it, through the exact per-access slow path otherwise.
// Returns the loaded value (0 for stores).
func (m *Machine) runOp(seg *runSeg, va vm.VAddr, size int, write bool, v uint64) uint64 {
	if uint64(va)&7+uint64(size) <= 8 {
		if seg.budget == 0 {
			m.segFlush(seg)
			seg.budget = m.wakeBudget(perAccessHitCost)
		}
		if seg.budget > 0 && m.openWindow(seg, va, write) {
			off := uint64(va - seg.lineVA)
			seg.budget--
			m.batch.fastOps++
			if write {
				seg.line.Store(off, size, v)
				seg.stores++
				return 0
			}
			seg.loads++
			return seg.line.Load(off, size)
		}
	}
	m.laneReset()
	m.batch.slowOps++
	if write {
		m.Store(va, size, v)
		return 0
	}
	return m.Load(va, size)
}

// AccessOp is one element of a RunAccesses batch: a load or store of Size
// bytes at VA. For stores Val is the value to write; for loads Val receives
// the result.
type AccessOp struct {
	VA    vm.VAddr
	Val   uint64
	Size  uint8
	Write bool
}

// RunAccesses executes the batch in order, exactly equivalent to issuing
// each op through Load/Store, with validation and accounting amortized to
// batch granularity where nothing interesting is in play.
func (m *Machine) RunAccesses(batch []AccessOp) {
	if !m.laneOK() {
		for i := range batch {
			op := &batch[i]
			if op.Write {
				m.Store(op.VA, int(op.Size), op.Val)
			} else {
				op.Val = m.Load(op.VA, int(op.Size))
			}
		}
		return
	}
	m.batch.runs++
	seg, _ := m.laneSegs()
	for i := range batch {
		op := &batch[i]
		if op.Write {
			m.runOp(seg, op.VA, int(op.Size), true, op.Val)
		} else {
			op.Val = m.runOp(seg, op.VA, int(op.Size), false, 0)
		}
	}
	m.segFlush(seg)
	m.laneExit()
}

// LoadRun performs len(dst) loads of size bytes spaced stride bytes apart
// starting at va, in index order, results into dst. Equivalent to the same
// Load calls; contiguous runs (stride == size) take the span engine.
func (m *Machine) LoadRun(va vm.VAddr, size int, stride uint64, dst []uint64) {
	switch {
	case !m.laneOK():
		for i := range dst {
			dst[i] = m.Load(va+vm.VAddr(uint64(i)*stride), size)
		}
	case stride == uint64(size):
		r := m.spanBegin(false)
		m.span(&r, &span{kind: spanLoad, size: stride, words: dst}, va, uint64(len(dst)))
		m.spanEnd(&r)
	default:
		m.batch.runs++
		seg, _ := m.laneSegs()
		for i := range dst {
			dst[i] = m.runOp(seg, va+vm.VAddr(uint64(i)*stride), size, false, 0)
		}
		m.segFlush(seg)
		m.laneExit()
	}
}

// StoreRun performs len(src) stores of size bytes spaced stride bytes
// apart starting at va, in index order, values from src.
func (m *Machine) StoreRun(va vm.VAddr, size int, stride uint64, src []uint64) {
	switch {
	case !m.laneOK():
		for i := range src {
			m.Store(va+vm.VAddr(uint64(i)*stride), size, src[i])
		}
	case stride == uint64(size):
		r := m.spanBegin(true)
		m.span(&r, &span{kind: spanStore, size: stride, words: src}, va, uint64(len(src)))
		m.spanEnd(&r)
	default:
		m.batch.runs++
		seg, _ := m.laneSegs()
		for i := range src {
			m.runOp(seg, va+vm.VAddr(uint64(i)*stride), size, true, src[i])
		}
		m.segFlush(seg)
		m.laneExit()
	}
}

// LoadByteRun reads len(b) consecutive bytes at va into b — the batched
// loadBytes/strncpy-read idiom.
func (m *Machine) LoadByteRun(va vm.VAddr, b []byte) {
	if !m.laneOK() {
		for i := range b {
			b[i] = uint8(m.Load(va+vm.VAddr(i), 1))
		}
		return
	}
	r := m.spanBegin(false)
	m.span(&r, &span{kind: spanLoadBytes, size: 1, bytes: b}, va, uint64(len(b)))
	m.spanEnd(&r)
}

// StoreByteRun writes the bytes of b at consecutive addresses from va —
// the batched storeBytes/strcpy idiom.
func (m *Machine) StoreByteRun(va vm.VAddr, b []byte) {
	if !m.laneOK() {
		for i := range b {
			m.Store(va+vm.VAddr(i), 1, uint64(b[i]))
		}
		return
	}
	r := m.spanBegin(true)
	m.span(&r, &span{kind: spanStoreBytes, size: 1, bytes: b}, va, uint64(len(b)))
	m.spanEnd(&r)
}

// spanKind is the data movement of a contiguous single-stream run.
type spanKind uint8

const (
	spanLoad       spanKind = iota // element i into words[i]
	spanLoadBytes                  // byte i into bytes[i]
	spanStore                      // words[i] into element i
	spanStoreBytes                 // bytes[i] into byte i
	spanFill                       // the low size bytes of fill into every element
)

// span is one contiguous single-stream run of size-byte elements: the
// LoadRun/StoreRun contiguous case, LoadByteRun, StoreByteRun, and each
// head, body and tail of a Memset.
type span struct {
	kind  spanKind
	size  uint64
	words []uint64
	bytes []byte
	fill  uint64
}

// move transfers elements [i, i+c) against the resident line l, element i
// at byte offset off. The caller has checked that none crosses a group.
func (sp *span) move(l cache.LineRef, off, i, c uint64) {
	size := sp.size
	switch sp.kind {
	case spanLoad:
		if size == 8 {
			copy(sp.words[i:i+c], l.Words()[off>>3:])
			return
		}
		for j := uint64(0); j < c; j++ {
			sp.words[i+j] = l.Load(off+j*size, int(size))
		}
	case spanStore:
		for j := uint64(0); j < c; j++ {
			l.Store(off+j*size, int(size), sp.words[i+j])
		}
	case spanFill:
		for j := uint64(0); j < c; j++ {
			l.Store(off+j*size, int(size), sp.fill)
		}
	case spanLoadBytes:
		// Whole words per host step: the bytes are little-endian within
		// each group.
		b, w := sp.bytes[i:i+c], l.Words()
		j := uint64(0)
		for ; j+8 <= c; j += 8 {
			binary.LittleEndian.PutUint64(b[j:], lineBytesLE(w, off+j, 8))
		}
		if r := c - j; r > 0 {
			v := lineBytesLE(w, off+j, r)
			for k := uint64(0); k < r; k++ {
				b[j+k] = uint8(v >> (8 * k))
			}
		}
	case spanStoreBytes:
		b := sp.bytes[i : i+c]
		j := uint64(0)
		for ; j+8 <= c; j += 8 {
			l.StoreBytesLE(off+j, 8, binary.LittleEndian.Uint64(b[j:]))
		}
		if r := c - j; r > 0 {
			var v uint64
			for k := uint64(0); k < r; k++ {
				v |= uint64(b[j+k]) << (8 * k)
			}
			l.StoreBytesLE(off+j, r, v)
		}
	}
}

// slow performs element i, at va, through the per-access path.
func (sp *span) slow(m *Machine, va vm.VAddr, i uint64) {
	size := int(sp.size)
	switch sp.kind {
	case spanLoad:
		sp.words[i] = m.Load(va, size)
	case spanLoadBytes:
		sp.bytes[i] = uint8(m.Load(va, 1))
	case spanStore:
		m.Store(va, size, sp.words[i])
	case spanStoreBytes:
		m.Store(va, 1, uint64(sp.bytes[i]))
	case spanFill:
		m.Store(va, size, sp.fill)
	}
}

// spanRun is the span engine's uncommitted state for one batched run, one
// access direction throughout. Each kind of state is committed only as
// often as its semantics need:
//
//   - per line: the LRU stamp (Cache.CommitRun) when the run leaves the
//     line, so relative LRU order — and with it every victim — matches the
//     per-access path;
//   - per page window: the page's touch stamp (PageRef.TouchRun) with the
//     summed count when the run leaves the page (translation ticks are
//     independent of cache ticks, so deferring it past line commits moves
//     nothing);
//   - per run: stats, instructions, the fast-op count and one
//     Clock.Advance.
//
// One counter serves all three: n is the run's fast accesses not yet
// committed, and lineAt and pageAt are the values n had when the open
// line and page were last stamped. Any slow access first commits
// everything (spanSlow). Nothing observes the clock between fast
// accesses, and limit keeps the deferred charge strictly short of the
// next wake deadline, so the single Advance fires nothing.
type spanRun struct {
	seg   *runSeg
	write bool
	need  vm.Prot

	n, lineAt, pageAt uint64
	// limit is the value of n at which the wake horizon is reached. It is
	// measured at run entry and after every slow access — the only points
	// where a deadline or Kern.WorkPending can change, since fast accesses
	// neither fire wakes nor queue kernel work — and is 0 while kernel
	// work is pending, so the next access goes slow and drains it.
	limit uint64
}

// spanBegin enters a batched run served by the span engine.
func (m *Machine) spanBegin(write bool) spanRun {
	m.batch.runs++
	seg, _ := m.laneSegs()
	r := spanRun{seg: seg, write: write, need: vm.ProtRead, limit: m.spanBudget()}
	if write {
		r.need = vm.ProtWrite
	}
	return r
}

// spanBudget returns how many batched accesses fit before the next wake
// deadline, or 0 while kernel work is pending.
func (m *Machine) spanBudget() uint64 {
	if m.Kern.WorkPending() {
		return 0
	}
	return m.wakeBudget(perAccessHitCost)
}

// spanEnd commits the run and leaves its windows open for the next one.
func (m *Machine) spanEnd(r *spanRun) {
	m.spanCommit(r)
	m.laneExit()
}

// spanCommit settles everything r has deferred: line, then page, then run.
func (m *Machine) spanCommit(r *spanRun) {
	n := r.n
	if n == 0 {
		return
	}
	if n > r.lineAt {
		m.Cache.CommitRun(r.seg.line, n-r.lineAt)
	}
	if n > r.pageAt {
		r.seg.page.TouchRun(n - r.pageAt)
	}
	r.n, r.lineAt, r.pageAt, r.limit = 0, 0, 0, r.limit-n
	if r.write {
		m.stats.Stores += n
	} else {
		m.stats.Loads += n
	}
	m.instrs += n
	m.batch.fastOps += n
	m.Clock.Advance(simtime.Cycles(n) * perAccessHitCost)
}

// span executes n elements of sp from va — each resident line's elements
// in one step, everything else through spanSlow — and returns the address
// past the last one.
func (m *Machine) span(r *spanRun, sp *span, va vm.VAddr, n uint64) vm.VAddr {
	seg, size, ch := r.seg, sp.size, m.Cache
	// Power-of-two elements at a size-aligned address never cross an ECC
	// group, and a shift sizes their line segments. Any other run is
	// clipped to the elements left in the current group, so the first
	// crossing element goes slow and panics there.
	shift := uint64(bits.TrailingZeros64(size))
	grouped := size == 1<<shift && size <= physmem.GroupBytes && uint64(va)&(size-1) == 0
	// The hot loop keeps the run counter and the line window in locals;
	// they go back to r and seg before anything else reads them.
	cnt, lineAt, limit := r.n, r.lineAt, r.limit
	line, lineVA, lineOK := seg.line, seg.lineVA, seg.lineOK
	for i := uint64(0); i < n; {
		if cnt < limit {
			if va.LineAddr() != lineVA || !lineOK {
				// Leaving the open line: stamp it, then probe the next
				// one, moving the page window first if va left it.
				if cnt > lineAt {
					ch.CommitRun(line, cnt-lineAt)
				}
				lineAt, lineVA, lineOK = cnt, va.LineAddr(), false
				if !seg.pageOK || seg.pageVA != va.PageAddr() {
					r.n = cnt
					m.spanPage(r, va)
				}
				if seg.pageOK {
					line, lineOK = ch.OpenLine(seg.page.Frame + physmem.Addr(uint64(lineVA-seg.pageVA)))
				}
			}
			// The prot check stays per line: a window resumed from an
			// earlier run may have been opened for the other direction.
			if lineOK && seg.page.Prot&r.need != 0 {
				off := uint64(va - lineVA)
				var c uint64
				if grouped {
					c = (physmem.LineBytes - off) >> shift
				} else if size > 0 {
					c = (physmem.GroupBytes - off%physmem.GroupBytes) / size
				}
				if c = min(c, n-i, limit-cnt); c > 0 {
					if sp.kind == spanLoad && size == 8 && c == physmem.GroupsPerLine {
						// A whole line of words, the table-scan case,
						// copied by element: an array assignment between
						// two pointers compiles to a memmove call.
						d, w := (*[physmem.GroupsPerLine]uint64)(sp.words[i:]), line.Words()
						d[0], d[1], d[2], d[3] = w[0], w[1], w[2], w[3]
						d[4], d[5], d[6], d[7] = w[4], w[5], w[6], w[7]
					} else {
						sp.move(line, off, i, c)
					}
					cnt += c
					i += c
					va += vm.VAddr(c * size)
					continue
				}
			}
		}
		r.n, r.lineAt = cnt, lineAt
		seg.line, seg.lineVA, seg.lineOK = line, lineVA, lineOK
		m.spanSlow(r, sp, va, i)
		cnt, lineAt, limit = r.n, r.lineAt, r.limit
		lineOK = seg.lineOK
		i++
		va += vm.VAddr(size)
	}
	r.n, r.lineAt = cnt, lineAt
	seg.line, seg.lineVA, seg.lineOK = line, lineVA, lineOK
	return va
}

// spanPage moves r's page window to the page containing va, touching the
// page being left. The window stays closed (pageOK false) when the page is
// unmapped or swapped out.
func (m *Machine) spanPage(r *spanRun, va vm.VAddr) {
	seg := r.seg
	if r.n > r.pageAt {
		seg.page.TouchRun(r.n - r.pageAt)
	}
	r.pageAt = r.n
	seg.page, seg.pageOK = m.AS.TranslateRun(va)
	seg.pageVA = va.PageAddr()
}

// spanSlow performs element i at va through the exact per-access path,
// committing everything deferred first and dropping both persistent
// windows, then re-measures the budget.
func (m *Machine) spanSlow(r *spanRun, sp *span, va vm.VAddr, i uint64) {
	m.spanCommit(r)
	m.laneReset()
	m.batch.slowOps++
	sp.slow(m, va, i)
	r.limit = m.spanBudget()
}

// CopyRun copies n bytes from src to dst (non-overlapping regions) with
// exactly Memcpy's access sequence: an 8-byte load/store pair whenever both
// pointers are 8-aligned with at least 8 bytes left, a byte pair otherwise.
// Memcpy delegates here, so every simulated memcpy in the tree is batched.
func (m *Machine) CopyRun(dst, src vm.VAddr, n uint64) {
	if !m.laneOK() {
		for n > 0 {
			if uint64(dst)%8 == 0 && uint64(src)%8 == 0 && n >= 8 {
				m.Store(dst, 8, m.Load(src, 8))
				dst, src, n = dst+8, src+8, n-8
			} else {
				m.Store(dst, 1, m.Load(src, 1))
				dst, src, n = dst+1, src+1, n-1
			}
		}
		return
	}
	m.batch.runs++
	sseg, dseg := m.laneSegs()
	for n > 0 {
		if uint64(dst)%8 == 0 && uint64(src)%8 == 0 && n >= 8 {
			words := m.copySpan(dseg, sseg, dst, src, 8, n/8)
			dst, src, n = dst+vm.VAddr(words*8), src+vm.VAddr(words*8), n-words*8
			continue
		}
		// Byte elements: all of n when the pointers can never co-align
		// ((dst-src)%8 != 0), otherwise only up to the next co-alignment
		// point — identical to the per-iteration test of the open-coded loop.
		bytes := n
		if uint64(dst)%8 == uint64(src)%8 && n >= 8 {
			bytes = (8 - uint64(dst)%8) % 8
		}
		done := m.copySpan(dseg, sseg, dst, src, 1, bytes)
		dst, src, n = dst+vm.VAddr(done), src+vm.VAddr(done), n-done
	}
	m.segFlushPair(sseg, dseg)
	m.laneExit()
}

// copySpan copies elems elements of size bytes from src to dst through the
// dual-stream fast lane (load src element, then store dst element, per
// iteration), executing all elems; returns elems. Each chunk is clipped to
// both line segments and to the wake horizon at two accesses per element;
// the source segment commits before the destination segment, preserving
// the interleaved order's relative LRU and touch stamps.
func (m *Machine) copySpan(dseg, sseg *runSeg, dst, src vm.VAddr, size, elems uint64) uint64 {
	total := elems
	for elems > 0 {
		chunk := elems
		if bud := m.pairBudget(sseg, dseg); bud < chunk {
			chunk = bud
		}
		ok := chunk > 0 && m.openWindow(sseg, src, false) && m.openWindow(dseg, dst, true)
		if !ok {
			m.laneReset()
			m.batch.slowOps += 2
			m.Store(dst, int(size), m.Load(src, int(size)))
			dst, src, elems = dst+vm.VAddr(size), src+vm.VAddr(size), elems-1
			continue
		}
		soff := uint64(src - sseg.lineVA)
		doff := uint64(dst - dseg.lineVA)
		if size == 8 {
			if c := (physmem.LineBytes - soff) >> 3; c < chunk {
				chunk = c
			}
			if c := (physmem.LineBytes - doff) >> 3; c < chunk {
				chunk = c
			}
			dseg.line.CopyWords(int(doff>>3), sseg.line, int(soff>>3), int(chunk))
		} else {
			if c := physmem.LineBytes - soff; c < chunk {
				chunk = c
			}
			if c := physmem.LineBytes - doff; c < chunk {
				chunk = c
			}
			for i := uint64(0); i < chunk; i++ {
				dseg.line.Store(doff+i, 1, sseg.line.Load(soff+i, 1))
			}
		}
		sseg.loads += chunk
		dseg.stores += chunk
		m.batch.fastOps += 2 * chunk
		// No per-chunk commit: each stream's segment flushes at its own
		// line/page switch inside openWindow (or at CopyRun's final flush),
		// so a line split across chunks commits once, not per chunk. Line
		// retire order — and with it every relative LRU and touch stamp —
		// matches the per-access interleave: a stream's line commits at the
		// first chunk boundary after its last access, source before
		// destination within a boundary.
		dst, src, elems = dst+vm.VAddr(chunk*size), src+vm.VAddr(chunk*size), elems-chunk
	}
	return total
}

// CompareRun counts matching bytes at a and b, loading byte pairs in the
// exact interleaved order of the open-coded loop
//
//	for k < max { if Load8(a+k) != Load8(b+k) { break }; k++ }
//
// — both bytes of the first mismatching pair are loaded — and returns the
// match length k (max when no mismatch occurs). This is the batched form of
// the string/match inner loops (gzip's matchLen).
func (m *Machine) CompareRun(a, b vm.VAddr, max int) int {
	if !m.laneOK() {
		for k := 0; k < max; k++ {
			if m.Load(a+vm.VAddr(k), 1) != m.Load(b+vm.VAddr(k), 1) {
				return k
			}
		}
		return max
	}
	m.batch.runs++
	aseg, bseg := m.laneSegs()
	k := 0
	for k < max {
		chunk := uint64(max - k)
		if bud := m.pairBudget(aseg, bseg); bud < chunk {
			chunk = bud
		}
		ok := chunk > 0 && m.openWindow(aseg, a+vm.VAddr(k), false) && m.openWindow(bseg, b+vm.VAddr(k), false)
		if !ok {
			m.laneReset()
			m.batch.slowOps += 2
			av := m.Load(a+vm.VAddr(k), 1)
			bv := m.Load(b+vm.VAddr(k), 1)
			if av != bv {
				return k
			}
			k++
			continue
		}
		aoff := uint64(a+vm.VAddr(k)) - uint64(aseg.lineVA)
		boff := uint64(b+vm.VAddr(k)) - uint64(bseg.lineVA)
		if c := physmem.LineBytes - aoff; c < chunk {
			chunk = c
		}
		if c := physmem.LineBytes - boff; c < chunk {
			chunk = c
		}
		// Compare up to 8 byte pairs per step with a masked word XOR; the
		// first differing byte's index falls out of the trailing-zero count.
		// Accounting stays per byte pair — only the comparison is widened.
		aw, bw := aseg.line.Words(), bseg.line.Words()
		pairs := chunk
		mismatch := false
		for i := uint64(0); i < chunk; {
			n := chunk - i
			if n > 8 {
				n = 8
			}
			if x := lineBytesLE(aw, aoff+i, n) ^ lineBytesLE(bw, boff+i, n); x != 0 {
				pairs = i + uint64(bits.TrailingZeros64(x))/8 + 1
				mismatch = true
				break
			}
			i += n
		}
		aseg.loads += pairs
		bseg.loads += pairs
		m.batch.fastOps += 2 * pairs
		if mismatch {
			m.segFlushPair(aseg, bseg)
			m.laneExit()
			return k + int(pairs) - 1
		}
		k += int(pairs)
	}
	m.segFlushPair(aseg, bseg)
	m.laneExit()
	return max
}
