// Batched access fast lane.
//
// The per-access path (Load/Store in machine.go) pays monitor fan-out,
// in-flight bookkeeping, a translate call, a cache lookup and the
// deferred-work gate on every single access — ~14 host-ns even when the
// access is a TLB-hit cache-hit that moves one byte. Straight-line runs
// (copy loops, match loops, table scans, checksums) repeat that work for
// accesses whose outcome is identical, which is why the byte-granularity
// apps (gzip, tar) ran an order of magnitude slower per simulated
// instruction than the compute-heavy servers.
//
// RunAccesses and the LoadRun/StoreRun/CopyRun/CompareRun conveniences
// execute such runs with the checks hoisted to batch granularity:
//
//   - translation is resolved once per page window (vm.TranslateRun) and
//     protection once per access direction, instead of a translate call per
//     access;
//   - the cache line is probed once per line segment (cache.OpenLine) and
//     data moves directly against the resident line, instead of a full
//     lookup per access;
//   - clock, LRU, hit and translate accounting for a segment is settled in
//     one commit (segFlush) — one Advance of n·(CostInstr+CostCacheHit) —
//     instead of 2n Advance calls;
//   - the wake horizon (simtime.Clock.Headroom) clamps every segment so no
//     timer deadline can fall inside a batched commit.
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
// CompareRun to compare up to eight byte pairs per host step.
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
// Load calls; contiguous runs (stride == size) take the tight span path.
func (m *Machine) LoadRun(va vm.VAddr, size int, stride uint64, dst []uint64) {
	if !m.laneOK() {
		for i := range dst {
			dst[i] = m.Load(va+vm.VAddr(uint64(i)*stride), size)
		}
		return
	}
	m.batch.runs++
	seg, _ := m.laneSegs()
	if stride == uint64(size) {
		m.loadSpan(seg, va, uint64(size), dst)
	} else {
		for i := range dst {
			dst[i] = m.runOp(seg, va+vm.VAddr(uint64(i)*stride), size, false, 0)
		}
	}
	m.segFlush(seg)
	m.laneExit()
}

// StoreRun performs len(src) stores of size bytes spaced stride bytes
// apart starting at va, in index order, values from src.
func (m *Machine) StoreRun(va vm.VAddr, size int, stride uint64, src []uint64) {
	if !m.laneOK() {
		for i := range src {
			m.Store(va+vm.VAddr(uint64(i)*stride), size, src[i])
		}
		return
	}
	m.batch.runs++
	seg, _ := m.laneSegs()
	if stride == uint64(size) {
		m.storeSpan(seg, va, uint64(size), src)
	} else {
		for i := range src {
			m.runOp(seg, va+vm.VAddr(uint64(i)*stride), size, true, src[i])
		}
	}
	m.segFlush(seg)
	m.laneExit()
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
	m.batch.runs++
	seg, _ := m.laneSegs()
	for len(b) > 0 {
		chunk := m.spanChunk(seg, va, 1, uint64(len(b)), false)
		if chunk == 0 {
			m.laneReset()
			m.batch.slowOps++
			b[0] = uint8(m.Load(va, 1))
			va++
			b = b[1:]
			continue
		}
		off := uint64(va - seg.lineVA)
		// Extract whole words per host step (the bytes are little-endian
		// within each group); accounting stays one load per byte.
		w := seg.line.Words()
		i := uint64(0)
		for ; i+8 <= chunk; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], lineBytesLE(w, off+i, 8))
		}
		if r := chunk - i; r > 0 {
			v := lineBytesLE(w, off+i, r)
			for j := uint64(0); j < r; j++ {
				b[i+j] = uint8(v >> (8 * j))
			}
		}
		seg.loads += chunk
		m.batch.fastOps += chunk
		m.segFlush(seg)
		va += vm.VAddr(chunk)
		b = b[chunk:]
	}
	m.laneExit()
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
	m.batch.runs++
	seg, _ := m.laneSegs()
	for len(b) > 0 {
		chunk := m.spanChunk(seg, va, 1, uint64(len(b)), true)
		if chunk == 0 {
			m.laneReset()
			m.batch.slowOps++
			m.Store(va, 1, uint64(b[0]))
			va++
			b = b[1:]
			continue
		}
		off := uint64(va - seg.lineVA)
		// Deposit whole words per host step (StoreBytesLE masks in n bytes
		// little-endian); accounting stays one store per byte.
		i := uint64(0)
		for ; i+8 <= chunk; i += 8 {
			seg.line.StoreBytesLE(off+i, 8, binary.LittleEndian.Uint64(b[i:]))
		}
		if r := chunk - i; r > 0 {
			var v uint64
			for j := uint64(0); j < r; j++ {
				v |= uint64(b[i+j]) << (8 * j)
			}
			seg.line.StoreBytesLE(off+i, r, v)
		}
		seg.stores += chunk
		m.batch.fastOps += chunk
		m.segFlush(seg)
		va += vm.VAddr(chunk)
		b = b[chunk:]
	}
	m.laneExit()
}

// spanChunk sizes the next fast chunk of a contiguous single-stream run at
// va: elems size-byte elements, clipped to the wake horizon and the open
// line segment. 0 means the next element must take the slow path.
func (m *Machine) spanChunk(seg *runSeg, va vm.VAddr, size, elems uint64, write bool) uint64 {
	chunk := elems
	if bud := m.wakeBudget(perAccessHitCost); bud < chunk {
		chunk = bud
	}
	if chunk == 0 || !m.openWindow(seg, va, write) {
		return 0
	}
	off := uint64(va - seg.lineVA)
	if c := (physmem.LineBytes - off) / size; c < chunk {
		chunk = c
	}
	return chunk
}

// loadSpan is the tight engine behind contiguous LoadRun.
func (m *Machine) loadSpan(seg *runSeg, va vm.VAddr, size uint64, dst []uint64) {
	for len(dst) > 0 {
		chunk := m.spanChunk(seg, va, size, uint64(len(dst)), false)
		if chunk == 0 {
			m.laneReset()
			m.batch.slowOps++
			dst[0] = m.Load(va, int(size))
			va += vm.VAddr(size)
			dst = dst[1:]
			continue
		}
		off := uint64(va - seg.lineVA)
		if size == 8 {
			g := int(off >> 3)
			for i := 0; i < int(chunk); i++ {
				dst[i] = seg.line.Word(g + i)
			}
		} else {
			for i := uint64(0); i < chunk; i++ {
				dst[i] = seg.line.Load(off+i*size, int(size))
			}
		}
		seg.loads += chunk
		m.batch.fastOps += chunk
		m.segFlush(seg)
		va += vm.VAddr(chunk * size)
		dst = dst[chunk:]
	}
}

// storeSpan is the tight engine behind contiguous StoreRun.
func (m *Machine) storeSpan(seg *runSeg, va vm.VAddr, size uint64, src []uint64) {
	for len(src) > 0 {
		chunk := m.spanChunk(seg, va, size, uint64(len(src)), true)
		if chunk == 0 {
			m.laneReset()
			m.batch.slowOps++
			m.Store(va, int(size), src[0])
			va += vm.VAddr(size)
			src = src[1:]
			continue
		}
		off := uint64(va - seg.lineVA)
		if size == 8 {
			g := int(off >> 3)
			for i := 0; i < int(chunk); i++ {
				seg.line.SetWord(g+i, src[i])
			}
		} else {
			for i := uint64(0); i < chunk; i++ {
				seg.line.Store(off+i*size, int(size), src[i])
			}
		}
		seg.stores += chunk
		m.batch.fastOps += chunk
		m.segFlush(seg)
		va += vm.VAddr(chunk * size)
		src = src[chunk:]
	}
}

// fillSpan executes elems contiguous stores of size bytes of the constant
// value v starting at va (Memset's engine); returns the address past the
// last store.
func (m *Machine) fillSpan(seg *runSeg, va vm.VAddr, size, v, elems uint64) vm.VAddr {
	for elems > 0 {
		chunk := m.spanChunk(seg, va, size, elems, true)
		if chunk == 0 {
			m.laneReset()
			m.batch.slowOps++
			m.Store(va, int(size), v)
			va += vm.VAddr(size)
			elems--
			continue
		}
		off := uint64(va - seg.lineVA)
		if size == 8 {
			g := int(off >> 3)
			for i := 0; i < int(chunk); i++ {
				seg.line.SetWord(g+i, v)
			}
		} else {
			for i := uint64(0); i < chunk; i++ {
				seg.line.Store(off+i*size, int(size), v)
			}
		}
		seg.stores += chunk
		m.batch.fastOps += chunk
		m.segFlush(seg)
		va += vm.VAddr(chunk * size)
		elems -= chunk
	}
	return va
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
