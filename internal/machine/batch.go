// Batched access fast lane.
//
// The per-access path (Load/Store in machine.go) pays monitor fan-out,
// in-flight bookkeeping, a translate call, a cache lookup and the
// deferred-work gate on every single access — ~14 host-ns even when the
// access is a TLB-hit cache-hit that moves one byte. Straight-line runs
// (copy loops, match loops, table scans, checksums) repeat that work for
// accesses whose outcome is identical.
//
// The LoadRun/ScanRun/StoreRun/LoadByteRun/StoreByteRun/CopyRun/CompareRun
// conveniences (and Memset and Memcpy, built on them) execute such runs
// with the checks hoisted to batch granularity. ScanRun is the
// discard-only kind, the resident-table scan: 8-byte loads whose values
// the program throws away, so it has no data step at all, and its
// whole-line stretches only probe and stamp each line:
//
//   - translation is resolved once per page window (vm.TranslateRun) and
//     protection checked against it, instead of a translate call per
//     access;
//   - the cache line is probed once per line (cache.OpenLine) and data
//     moves directly against the resident line, instead of a full lookup
//     per access;
//   - a single-stream run over whole resident lines takes them in
//     stretches (Cache.Lines): from a line-aligned address in an open page
//     window, up to the page's end, the run's last whole line or the wake
//     budget's, one loop in the cache probes, moves and stamps each line,
//     stopping at the first line that is not resident, whose first element
//     then goes straight to the per-access path (the stretch has probed
//     it). The probe tries the line's hinted way before the tag scan
//     (package cache). Stamping a line as the stretch reads it equals
//     stamping it when the run leaves it: the stretch makes every access
//     to the line before moving on, and nothing else ticks the cache in
//     between;
//   - a word copy whose streams are co-aligned on lines (delta a multiple
//     of 64) takes the same stretches on both streams (pairLines): from a
//     line-aligned element, up to either page window's end, the run's last
//     whole line or the budget's, one probe a stream, one move and two
//     stamps a line, the source's before the destination's;
//   - accounting is committed in bulk by one engine (spanRun) behind every
//     entry point, single-stream (contiguous runs, Memset) and two-stream
//     (CopyRun, CompareRun) alike. It commits each kind of state only as
//     often as it must: each stream's LRU stamp once per line, its page
//     touch once per page window, and stats, instructions and one clock
//     Advance once per run;
//   - the wake horizon (simtime.Clock.Headroom) bounds every deferred
//     charge, so no timer deadline can fall inside a batched commit.
//
// Runs the lane refuses at entry — on a machine with a monitor attached or
// built with Config.Reference, and strided runs (stride != size) — go
// through the same engine with a zero budget: every element takes the
// per-access path, and the run opens no window and counts nothing in
// BatchStats.
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
//   - the run was refused the lane at entry (a monitor is attached and
//     every callback must fire, the machine is a Reference one, or the run
//     is strided): every element of it;
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
// windows. Machine.Recycle resets all of it so a pooled machine can never
// leak a stale batch window across tenants.
type batchLane struct {
	runs    uint64 // batched runs entered through the lane
	fastOps uint64 // accesses served in the lane
	slowOps uint64 // accesses that bailed to the per-access path

	// Persistent run windows, one per stream, reused across runs. Windows
	// left open at the end of a run stay valid for the next one as long as
	// neither the cache residency epoch nor the translation epoch has moved
	// (laneSegs checks); consecutive runs over the same lines (gzip's
	// match/hash loops) then skip the translate and line probe entirely.
	a, b       runSeg
	cacheEpoch uint64
	vmEpoch    uint64
}

// BatchStats returns the host-side fast-lane counters: batched runs
// entered, accesses served in the lane, and accesses that fell back to the
// per-access slow path.
func (m *Machine) BatchStats() (runs, fastOps, slowOps uint64) {
	return m.batch.runs, m.batch.fastOps, m.batch.slowOps
}

// laneOK reports whether batched runs may use the fast lane right now.
// Attached monitors demand per-access callbacks, so any monitor refuses the
// lane to the whole run (spanBegin), as does a Reference machine.
func (m *Machine) laneOK() bool {
	return len(m.monitors) == 0 && !m.cfg.Reference
}

// perAccessHitCost is the exact cycle charge of one TLB-hit cache-hit
// access on the per-access path: the instruction itself plus the cache hit.
const perAccessHitCost = simtime.CostInstr + simtime.CostCacheHit

// runSeg is the open fast-lane window of one access stream: a page window
// (translation hoisted to page granularity) containing a line window
// (cache probe hoisted to line granularity).
type runSeg struct {
	page   vm.PageRef
	pageVA vm.VAddr
	pageOK bool

	line   cache.LineRef
	lineVA vm.VAddr
	lineOK bool
}

// laneReset drops BOTH persistent windows. Required before any slow-path
// access: the access may change any translation, cache or timer state
// either window caches, including windows left open by a previous run.
// Whatever a run deferred is committed first (spanSlow).
func (m *Machine) laneReset() {
	m.batch.a.pageOK, m.batch.a.lineOK = false, false
	m.batch.b.pageOK, m.batch.b.lineOK = false, false
}

// laneSegs returns the machine's persistent run windows, revalidated
// against the cache-residency and translation epochs: when neither epoch has
// moved since the last run ended, any still-open windows are provably intact
// and the new run resumes without re-probing; otherwise both are dropped.
func (m *Machine) laneSegs() (*runSeg, *runSeg) {
	a, b := &m.batch.a, &m.batch.b
	if ce, ve := m.Cache.Epoch(), m.AS.Epoch(); m.batch.cacheEpoch != ce || m.batch.vmEpoch != ve {
		*a = runSeg{}
		*b = runSeg{}
		m.batch.cacheEpoch, m.batch.vmEpoch = ce, ve
	}
	return a, b
}

// laneExit re-snapshots the epochs after a run: windows still open now were
// (re)derived after the run's last cache or translation mutation, so they
// remain trustworthy at the next laneSegs with these epoch values.
func (m *Machine) laneExit() {
	m.batch.cacheEpoch, m.batch.vmEpoch = m.Cache.Epoch(), m.AS.Epoch()
}

// LoadRun performs len(dst) loads of size bytes spaced stride bytes apart
// starting at va, in index order, results into dst. Equivalent to the same
// Load calls; a strided run (stride != size) is refused the lane.
func (m *Machine) LoadRun(va vm.VAddr, size int, stride uint64, dst []uint64) {
	var r spanRun
	m.spanBegin(&r, vm.ProtRead, vm.ProtNone, stride != uint64(size))
	m.span(&r, &span{kind: spanLoad, size: stride, width: size, words: dst}, va, uint64(len(dst)))
	m.spanEnd(&r)
}

// ScanRun performs n 8-byte loads at consecutive addresses from va whose
// values the program discards: the resident-table scan idiom. Equivalent
// to the same Load calls.
func (m *Machine) ScanRun(va vm.VAddr, n uint64) {
	var r spanRun
	m.spanBegin(&r, vm.ProtRead, vm.ProtNone, false)
	m.span(&r, &span{kind: spanScan, size: 8, width: 8}, va, n)
	m.spanEnd(&r)
}

// StoreRun performs len(src) stores of size bytes spaced stride bytes
// apart starting at va, in index order, values from src.
func (m *Machine) StoreRun(va vm.VAddr, size int, stride uint64, src []uint64) {
	var r spanRun
	m.spanBegin(&r, vm.ProtWrite, vm.ProtNone, stride != uint64(size))
	m.span(&r, &span{kind: spanStore, size: stride, width: size, words: src}, va, uint64(len(src)))
	m.spanEnd(&r)
}

// LoadByteRun reads len(b) consecutive bytes at va into b — the batched
// loadBytes/strncpy-read idiom.
func (m *Machine) LoadByteRun(va vm.VAddr, b []byte) {
	var r spanRun
	m.spanBegin(&r, vm.ProtRead, vm.ProtNone, false)
	m.span(&r, &span{kind: spanLoadBytes, size: 1, bytes: b}, va, uint64(len(b)))
	m.spanEnd(&r)
}

// StoreByteRun writes the bytes of b at consecutive addresses from va —
// the batched storeBytes/strcpy idiom.
func (m *Machine) StoreByteRun(va vm.VAddr, b []byte) {
	var r spanRun
	m.spanBegin(&r, vm.ProtWrite, vm.ProtNone, false)
	m.span(&r, &span{kind: spanStoreBytes, size: 1, bytes: b}, va, uint64(len(b)))
	m.spanEnd(&r)
}

// spanKind is the data movement of a contiguous run.
type spanKind uint8

const (
	spanLoad       spanKind = iota // element i into words[i]
	spanScan                       // element i loaded, its value discarded
	spanLoadBytes                  // byte i into bytes[i]
	spanStore                      // words[i] into element i
	spanStoreBytes                 // bytes[i] into byte i
	spanFill                       // the low size bytes of fill into every element
	spanCopy                       // element i of stream a into element i of stream b
	spanCompare                    // byte i of stream a against byte i of stream b, until they differ
)

// span is one run of size-byte elements: a LoadRun, ScanRun or StoreRun,
// LoadByteRun, StoreByteRun, each head, body and tail of a Memset, and
// each word or byte stretch of a CopyRun or CompareRun. The last two are
// two-stream spans: element i is an access at va+i·size on stream a, then
// one at the same address plus delta on stream b.
type span struct {
	kind spanKind
	size uint64
	// width is a LoadRun's or StoreRun's access size. It equals size but
	// in a strided run, which the lane refuses: there size is the stride.
	width int
	words []uint64
	bytes []byte
	fill  uint64
	delta vm.VAddr
	// stop is set by a compare's first mismatching element, which ends
	// the span after both its bytes were loaded.
	stop bool
}

// move transfers elements [i, i+c) against the resident line l (element i
// at byte offset off) and, for a two-stream span, lb (at boff). The caller
// has checked that none crosses a group. It returns how many elements it
// performed: c, or fewer when a compare stopped.
func (sp *span) move(l, lb cache.LineRef, off, boff, i, c uint64) uint64 {
	size := sp.size
	switch sp.kind {
	case spanLoad:
		if size == 8 {
			copy(sp.words[i:i+c], l.Words()[off>>3:])
			break
		}
		for j := uint64(0); j < c; j++ {
			sp.words[i+j] = l.Load(off+j*size, int(size))
		}
	case spanScan:
		// No data step: the loads' values are discarded.
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
	case spanCopy:
		if size == 8 {
			lb.CopyWords(int(boff>>3), l, int(off>>3), int(c))
			break
		}
		for j := uint64(0); j < c; j++ {
			lb.Store(boff+j, 1, l.Load(off+j, 1))
		}
	case spanCompare:
		// Up to 8 byte pairs per step with a masked word XOR; the first
		// differing byte's index falls out of the trailing-zero count.
		aw, bw := l.Words(), lb.Words()
		for j := uint64(0); j < c; {
			k := min(c-j, 8)
			if x := lineBytesLE(aw, off+j, k) ^ lineBytesLE(bw, boff+j, k); x != 0 {
				sp.stop = true
				return j + uint64(bits.TrailingZeros64(x))/8 + 1
			}
			j += k
		}
	}
	return c
}

// lineOps maps the single-stream kinds to the data step of their
// whole-line stretches.
var lineOps = [...]cache.LineOp{
	spanLoad:       cache.LoadWordLines,
	spanScan:       cache.ScanWordLines,
	spanLoadBytes:  cache.LoadByteLines,
	spanStore:      cache.StoreWordLines,
	spanStoreBytes: cache.StoreByteLines,
	spanFill:       cache.FillWordLines,
}

// slow performs element i, at va, through the per-access path.
func (sp *span) slow(m *Machine, va vm.VAddr, i uint64) {
	size := int(sp.size)
	switch sp.kind {
	case spanLoad:
		sp.words[i] = m.Load(va, sp.width)
	case spanScan:
		_ = m.Load(va, 8)
	case spanLoadBytes:
		sp.bytes[i] = uint8(m.Load(va, 1))
	case spanStore:
		m.Store(va, sp.width, sp.words[i])
	case spanStoreBytes:
		m.Store(va, 1, uint64(sp.bytes[i]))
	case spanFill:
		m.Store(va, size, sp.fill)
	case spanCopy:
		m.Store(va+sp.delta, size, m.Load(va, size))
	case spanCompare:
		sp.stop = m.Load(va, 1) != m.Load(va+sp.delta, 1)
	}
}

// spanStream is one access stream of a run: its persistent window, the
// protection its accesses need, and the values the run counter had when
// its open line and page were last stamped.
type spanStream struct {
	seg            *runSeg
	need           vm.Prot
	lineAt, pageAt uint64
}

// spanRun is the span engine's uncommitted state for one batched run of
// one access stream, or of two: stream a (s[0], on window batch.a) and
// stream b (s[1], on batch.b), accessed in that order in every element.
// Each kind of state is committed only as often as its semantics need:
//
//   - per line: a stream's LRU stamp (Cache.CommitRun) when it leaves the
//     line, or as a whole-line stretch reads it, so relative LRU order —
//     and with it every victim — matches the per-access path;
//   - per page window: a stream's page touch (PageRef.TouchRun) with the
//     summed count when it leaves the page (translation ticks are
//     independent of cache ticks, so deferring it past line commits moves
//     nothing);
//   - per run: stats, instructions, the fast-op count and one
//     Clock.Advance.
//
// One counter serves all three: n is the run's fast elements not yet
// committed, and each stream's lineAt and pageAt are the values n had when
// its open line and page were last stamped. A stream's last access to a
// line or page comes just before it leaves it, so stamping at the leave
// keeps the per-access order of last accesses — provided that when both
// streams leave at the same element, stream a (the one accessed first)
// stamps first. Any slow access first commits everything (spanSlow).
// Nothing observes the clock between fast accesses, and limit keeps the
// deferred charge strictly short of the next wake deadline, so the single
// Advance fires nothing.
type spanRun struct {
	s [2]spanStream
	// acc is the accesses per element (1, or 2 in a two-stream run), and
	// stores how many of them are stores (at most one stream stores).
	acc, stores uint64

	n uint64
	// limit is the value of n at which the wake horizon is reached. It is
	// measured at run entry and after every slow access — the only points
	// where a deadline or Kern.WorkPending can change, since fast accesses
	// neither fire wakes nor queue kernel work — and is 0 while kernel
	// work is pending, so the next element goes slow and drains it.
	limit uint64
	// off marks a run the lane refused at entry: its limit stays 0, so
	// every element goes slow, and it counts nothing in BatchStats.
	off bool
}

// spanBegin enters r, a batched run served by the span engine: stream a
// needs protection a, and stream b, unless b is ProtNone, needs b. The
// lane is refused to a strided run and while laneOK says no. It fills r in
// place: a spanRun is too large to return cheaply.
func (m *Machine) spanBegin(r *spanRun, a, b vm.Prot, strided bool) {
	r.off = strided || !m.laneOK()
	if !r.off {
		m.batch.runs++
	}
	sa, sb := m.laneSegs()
	r.s[0] = spanStream{seg: sa, need: a}
	r.s[1] = spanStream{seg: sb, need: b}
	r.acc, r.stores, r.n = 1, 0, 0
	if b != vm.ProtNone {
		r.acc = 2
	}
	if a == vm.ProtWrite || b == vm.ProtWrite {
		r.stores = 1
	}
	r.limit = m.spanBudget(r)
}

// spanBudget returns how many elements of r fit strictly before the next
// wake deadline (effectively unlimited when no timer is armed), or 0 for a
// refused run and while kernel work is pending.
func (m *Machine) spanBudget(r *spanRun) uint64 {
	if r.off || m.Kern.WorkPending() {
		return 0
	}
	if h, bounded := m.Clock.Headroom(); bounded {
		return uint64(h / (simtime.Cycles(r.acc) * perAccessHitCost))
	}
	return ^uint64(0)
}

// spanEnd commits the run and leaves its windows open for the next one.
func (m *Machine) spanEnd(r *spanRun) {
	m.spanCommit(r)
	m.laneExit()
}

// spanCommit settles everything r has deferred: each stream's line and
// page, stream a first, then the run.
func (m *Machine) spanCommit(r *spanRun) {
	n := r.n
	if n == 0 {
		return
	}
	for k := range r.acc {
		m.streamCommit(&r.s[k], n)
	}
	r.n, r.limit = 0, r.limit-n
	acc, stores := n*r.acc, n*r.stores
	m.stats.Loads += acc - stores
	m.stats.Stores += stores
	m.instrs += acc
	m.batch.fastOps += acc
	m.Clock.Advance(simtime.Cycles(acc) * perAccessHitCost)
}

// streamCommit stamps s's open line and page with its accesses since they
// were last stamped, n being the run counter now.
func (m *Machine) streamCommit(s *spanStream, n uint64) {
	if n > s.lineAt {
		m.Cache.CommitRun(s.seg.line, n-s.lineAt)
	}
	if n > s.pageAt {
		s.seg.page.TouchRun(n - s.pageAt)
	}
	s.lineAt, s.pageAt = 0, 0
}

// spanPage moves s's page window to the page containing va, touching the
// page being left. The window stays closed (pageOK false) when the page is
// unmapped or swapped out.
func (m *Machine) spanPage(r *spanRun, s *spanStream, va vm.VAddr) {
	seg := s.seg
	if r.n > s.pageAt {
		seg.page.TouchRun(r.n - s.pageAt)
	}
	s.pageAt = r.n
	seg.page, seg.pageOK = m.AS.TranslateRun(va)
	seg.pageVA = va.PageAddr()
}

// span executes n elements of the single-stream span sp from va — each
// resident line's elements in one step, everything else through spanSlow —
// and returns the address past the last one.
func (m *Machine) span(r *spanRun, sp *span, va vm.VAddr, n uint64) vm.VAddr {
	s, size, ch := &r.s[0], sp.size, m.Cache
	seg := s.seg
	// Power-of-two elements at a size-aligned address never cross an ECC
	// group, and a shift sizes their line segments. Any other run is
	// clipped to the elements left in the current group, so the first
	// crossing element goes slow and panics there.
	shift := uint64(bits.TrailingZeros64(size))
	grouped := size == 1<<shift && size <= physmem.GroupBytes && uint64(va)&(size-1) == 0
	// The hot loop inlines spanOpen's line step and keeps the run counter
	// and the line window in locals, which go back to r and seg before
	// anything else reads them: a spanOpen call per line costs the table
	// scans about a fifth of their host time.
	cnt, lineAt, limit := r.n, s.lineAt, r.limit
	line, lineVA, lineOK := seg.line, seg.lineVA, seg.lineOK
	// Word loads, scans, stores and fills and byte loads and stores take
	// whole-line stretches. perShift is log2 of a line's elements for
	// them, and 0 for the rest: a division by the element count would
	// cost each stretch two hardware divides.
	var perShift uint64
	if grouped && (size == 8 || sp.kind == spanLoadBytes || sp.kind == spanStoreBytes) {
		perShift = uint64(bits.TrailingZeros64(physmem.LineBytes)) - shift
	}
	for i := uint64(0); i < n; {
		if cnt < limit {
			// A whole-line stretch: from a line-aligned va inside an open
			// page window that grants the access, every whole line left
			// in the page, in the run and in the budget at one probe,
			// one move and one stamp a line. The open line is stamped
			// first, and the window is handed back on the stretch's last
			// line with nothing pending; a line that is not resident
			// stops the stretch, and its first element goes straight to
			// the slow path: the stretch has probed it already.
			if perShift != 0 && uint64(va)%physmem.LineBytes == 0 && seg.pageOK && seg.pageVA == va.PageAddr() && seg.page.Prot&s.need != 0 {
				if k := min((vm.PageBytes-uint64(va-seg.pageVA))/physmem.LineBytes, (n-i)>>perShift, (limit-cnt)>>perShift); k > 0 {
					if cnt > lineAt {
						ch.CommitRun(line, cnt-lineAt)
					}
					pa := seg.page.Frame + physmem.Addr(uint64(va-seg.pageVA))
					j, last := ch.Lines(pa, lineOps[sp.kind], k, sp.words, sp.bytes, i, sp.fill)
					if j > 0 {
						line, lineVA, lineOK = last, va+vm.VAddr((j-1)*physmem.LineBytes), true
						cnt += j << perShift
						i += j << perShift
						va += vm.VAddr(j * physmem.LineBytes)
					}
					lineAt = cnt
					if j == k {
						continue
					}
					goto slow
				}
			}
			if va.LineAddr() != lineVA || !lineOK {
				if cnt > lineAt {
					ch.CommitRun(line, cnt-lineAt)
				}
				lineAt, lineVA, lineOK = cnt, va.LineAddr(), false
				if !seg.pageOK || seg.pageVA != va.PageAddr() {
					r.n = cnt
					m.spanPage(r, s, va)
				}
				if seg.pageOK {
					line, lineOK = ch.OpenLine(seg.page.Frame + physmem.Addr(uint64(lineVA-seg.pageVA)))
				}
			}
			if lineOK && seg.page.Prot&s.need != 0 {
				off := uint64(va - lineVA)
				var c uint64
				if grouped {
					c = (physmem.LineBytes - off) >> shift
				} else if size > 0 {
					c = (physmem.GroupBytes - off%physmem.GroupBytes) / size
				}
				if c = min(c, n-i, limit-cnt); c > 0 {
					sp.move(line, cache.LineRef{}, off, 0, i, c)
					cnt += c
					i += c
					va += vm.VAddr(c * size)
					continue
				}
			}
		}
	slow:
		r.n, s.lineAt = cnt, lineAt
		seg.line, seg.lineVA, seg.lineOK = line, lineVA, lineOK
		m.spanSlow(r, sp, va, i)
		cnt, lineAt, limit = r.n, s.lineAt, r.limit
		lineOK = seg.lineOK
		i++
		va += vm.VAddr(size)
	}
	r.n, s.lineAt = cnt, lineAt
	seg.line, seg.lineVA, seg.lineOK = line, lineVA, lineOK
	return va
}

// pair executes n elements of the two-stream span sp from va (stream b at
// va+sp.delta) — each stretch that stays on both streams' resident lines
// in one step, everything else through spanSlow — and returns the address
// past the last one performed. A compare stops after its first
// mismatching element. A word copy whose streams are co-aligned on lines
// takes whole-line stretches (pairLines) from every line-aligned element.
func (m *Machine) pair(r *spanRun, sp *span, va vm.VAddr, n uint64) vm.VAddr {
	sa, sb, shift := r.s[0].seg, r.s[1].seg, uint64(bits.TrailingZeros64(sp.size))
	lines := sp.kind == spanCopy && sp.size == 8 && uint64(sp.delta)%physmem.LineBytes == 0
	for i := uint64(0); i < n && !sp.stop; {
		if r.n < r.limit {
			if lines && uint64(va)%physmem.LineBytes == 0 {
				if j, k := m.pairLines(r, va, sp.delta, n-i); k > 0 {
					i += j * physmem.GroupsPerLine
					va += vm.VAddr(j * physmem.LineBytes)
					if j == k {
						continue
					}
					// A line not resident on one stream: the stretch
					// has probed it, so its first element goes slow.
					goto slow
				}
			}
			// Stream a moves first: when both streams leave a line at
			// this element, a's stamp must precede b's, as its last
			// access did.
			if m.spanOpen(r, &r.s[0], va) && m.spanOpen(r, &r.s[1], va+sp.delta) {
				off, boff := uint64(va-sa.lineVA), uint64(va+sp.delta-sb.lineVA)
				c := min((physmem.LineBytes-max(off, boff))>>shift, n-i, r.limit-r.n)
				c = sp.move(sa.line, sb.line, off, boff, i, c)
				r.n += c
				i += c
				va += vm.VAddr(c * sp.size)
				continue
			}
		}
	slow:
		m.spanSlow(r, sp, va, i)
		i++
		va += vm.VAddr(sp.size)
	}
	return va
}

// pairLines serves a whole-line stretch of a word copy whose streams are
// co-aligned on lines, from the line-aligned va with left elements to go:
// every whole line left in both streams' page windows, in the run and in
// the budget, at one probe a stream, one move and one stamp a stream a
// line (Cache.CopyLines). Both open lines are stamped first, stream a's
// before b's, and both windows are handed back on the stretch's last line
// with nothing pending. It returns the lines served and the lines it
// tried — 0 when either page window is not open on its stream's page for
// the access; fewer served than tried means the next line is not resident
// on one stream.
func (m *Machine) pairLines(r *spanRun, va, delta vm.VAddr, left uint64) (j, k uint64) {
	a, b := &r.s[0], &r.s[1]
	sa, sb, vb := a.seg, b.seg, va+delta
	if !sa.pageOK || sa.pageVA != va.PageAddr() || sa.page.Prot&a.need == 0 ||
		!sb.pageOK || sb.pageVA != vb.PageAddr() || sb.page.Prot&b.need == 0 {
		return 0, 0
	}
	k = min((vm.PageBytes-uint64(va-sa.pageVA))/physmem.LineBytes, (vm.PageBytes-uint64(vb-sb.pageVA))/physmem.LineBytes,
		left/physmem.GroupsPerLine, (r.limit-r.n)/physmem.GroupsPerLine)
	if k == 0 {
		return 0, 0
	}
	for s := range r.s {
		if st := &r.s[s]; r.n > st.lineAt {
			m.Cache.CommitRun(st.seg.line, r.n-st.lineAt)
		}
	}
	pa, pb := sa.page.Frame+physmem.Addr(uint64(va-sa.pageVA)), sb.page.Frame+physmem.Addr(uint64(vb-sb.pageVA))
	j, la, lb := m.Cache.CopyLines(pa, pb, k)
	if j > 0 {
		last := vm.VAddr((j - 1) * physmem.LineBytes)
		sa.line, sa.lineVA, sa.lineOK = la, va+last, true
		sb.line, sb.lineVA, sb.lineOK = lb, vb+last, true
	}
	r.n += j * physmem.GroupsPerLine
	a.lineAt, b.lineAt = r.n, r.n
	return j, k
}

// spanOpen moves s's windows to cover an access at va, stamping the line —
// and when va left it, the page — that s is leaving, and reports whether
// the access can be served in the lane: its line is resident and its page
// grants what s needs. The prot check stays per call: a window resumed
// from an earlier run may have been opened for the other direction.
func (m *Machine) spanOpen(r *spanRun, s *spanStream, va vm.VAddr) bool {
	seg := s.seg
	if lineVA := va.LineAddr(); !seg.lineOK || seg.lineVA != lineVA {
		if r.n > s.lineAt {
			m.Cache.CommitRun(seg.line, r.n-s.lineAt)
		}
		s.lineAt, seg.lineVA, seg.lineOK = r.n, lineVA, false
		if !seg.pageOK || seg.pageVA != va.PageAddr() {
			m.spanPage(r, s, va)
		}
		if seg.pageOK {
			seg.line, seg.lineOK = m.Cache.OpenLine(seg.page.Frame + physmem.Addr(uint64(lineVA-seg.pageVA)))
		}
	}
	return seg.lineOK && seg.page.Prot&s.need != 0
}

// spanSlow performs element i at va through the exact per-access path,
// committing everything deferred first and dropping both persistent
// windows, then re-measures the budget.
func (m *Machine) spanSlow(r *spanRun, sp *span, va vm.VAddr, i uint64) {
	m.spanCommit(r)
	m.laneReset()
	if !r.off {
		m.batch.slowOps += r.acc
	}
	sp.slow(m, va, i)
	r.limit = m.spanBudget(r)
}

// CopyRun copies n bytes from src to dst (non-overlapping regions) with
// exactly Memcpy's access sequence: an 8-byte load/store pair whenever both
// pointers are 8-aligned with at least 8 bytes left, a byte pair otherwise.
// Memcpy delegates here, so every simulated memcpy in the tree is batched.
func (m *Machine) CopyRun(dst, src vm.VAddr, n uint64) {
	var r spanRun
	m.spanBegin(&r, vm.ProtRead, vm.ProtWrite, false)
	sp := span{kind: spanCopy, delta: dst - src}
	for end := src + vm.VAddr(n); src < end; {
		left := uint64(end - src)
		if uint64(src)%8 == 0 && uint64(sp.delta)%8 == 0 && left >= 8 {
			sp.size = 8
			src = m.pair(&r, &sp, src, left/8)
			continue
		}
		// Byte elements: all of the rest when the pointers can never
		// co-align, otherwise only up to the next co-alignment point —
		// identical to the per-iteration test of the open-coded loop.
		if uint64(sp.delta)%8 == 0 && left >= 8 {
			left = 8 - uint64(src)%8
		}
		sp.size = 1
		src = m.pair(&r, &sp, src, left)
	}
	m.spanEnd(&r)
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
	var r spanRun
	m.spanBegin(&r, vm.ProtRead, vm.ProtRead, false)
	sp := span{kind: spanCompare, size: 1, delta: b - a}
	var end vm.VAddr
	if max > 0 {
		end = m.pair(&r, &sp, a, uint64(max))
	}
	m.spanEnd(&r)
	if !sp.stop {
		return max
	}
	return int(end-a) - 1
}
