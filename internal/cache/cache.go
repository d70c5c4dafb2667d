// Package cache models the CPU's data cache: a physically-indexed,
// set-associative, write-back cache with LRU replacement, sitting between
// the simulated CPU and the ECC memory controller.
//
// The cache matters to SafeMem for two reasons (Section 2.2.2, "Dealing with
// Cache Effects"):
//
//   - ECC is only checked on *memory* traffic, so an access that hits in the
//     cache can never raise an ECC fault. WatchMemory therefore flushes the
//     watched lines so the next access — read or write, since writes to
//     uncached lines must first fetch the line — goes to DRAM.
//   - After the first (and only interesting) access is detected, the line may
//     legitimately stay cached; SafeMem needs just the first access.
//
// The lookup path is the single hottest function of the simulator (every
// simulated load and store lands here), so its layout is tuned: ways live in
// one flat slice (no per-set slice header chase), validity is a generation
// stamp compared against the cache's current generation, the set index is a
// shift-and-mask with precomputed constants, and the associative probe scans
// a packed side array of line tags (eight 8-byte tags — one host cache line
// per set) instead of striding across the 96-byte way structs, so both the
// hit probe and the full-scan miss touch a single host line. Line addresses
// are 64-byte aligned, so a tag's low bit doubles as its valid bit. None of
// this changes simulated semantics: hit/miss decisions, LRU victim choice,
// write-back order and cycle charges are identical to the straightforward
// implementation.
//
// Whole-line stretches (Lines, the batch lane's resident-table scans) probe
// hint first: the cache remembers, for each line address modulo its
// capacity, the way a miss last filled that line into or a stretch last
// found it in, and the probe checks that way's own identity (line and
// generation, the first words of the way struct, beside its LRU stamp)
// before it scans the set's tags. A hinted hit thus touches one host line
// — the way's — where a tag scan touches two and ends in a branch the host
// cannot predict. A stale hint just fails that check: the tag scan answers
// and the hint is refreshed, so the hint can never change an answer and
// needs no upkeep on evictions, flushes, image restores or recycles.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// Config sizes the cache.
type Config struct {
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
}

// DefaultConfig is a 256 KiB 8-way cache (512 sets × 8 ways × 64 B),
// comparable to the L2 of the paper's Pentium 4 platform.
var DefaultConfig = Config{Sets: 512, Ways: 8}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	WriteBacks uint64
	Flushes    uint64
}

// lineShift is log2(physmem.LineBytes). The zero-width assertion below
// breaks the build if the line size ever changes without this constant.
const lineShift = 6

var _ = [1]struct{}{}[physmem.LineBytes-1<<lineShift]

// way is one cache way. It is valid iff gen equals the cache's current
// generation; single-way invalidation writes gen 0 (the cache generation
// starts at 1 and only grows). Identity and LRU stamp come first, so a
// hinted probe and its stamp touch one host line.
type way struct {
	gen   uint64
	line  physmem.Addr // line-aligned physical address
	lru   uint64
	dirty bool
	words [physmem.GroupsPerLine]uint64
}

// Cache is the simulated data cache. Not safe for concurrent use.
type Cache struct {
	ctrl  *memctrl.Controller
	clock *simtime.Clock
	cfg   Config

	ways []way // cfg.Sets×cfg.Ways, set-major
	// tags mirrors ways: uint64(line)|1 for a valid way, 0 for an invalid
	// one. The probe loop scans only this packed array; every mutation of a
	// way's identity (fill, invalidate, flush-all, recycle) updates the tag.
	tags []uint64
	// hint holds, per line address modulo the cache's capacity (rounded
	// up to a power of two), the way in its set where a miss last filled a
	// line with that address or a whole-line stretch (Lines) last found
	// one. It is only a guess, checked against the way itself. One hint per set would name the
	// wrong way whenever a stretch comes back to a set for another line,
	// as every pass longer than Sets lines does.
	hint     []uint8
	hintMask uint64 // len(hint)-1
	setMask  uint64 // cfg.Sets-1
	gen      uint64 // current valid generation, ≥1
	// epoch counts residency mutations: every fill, invalidation, flush-all
	// and recycle. A LineRef obtained while Epoch() returned E is still
	// resident (and still holds the same line) as long as Epoch() == E. The
	// machine's batch lane uses this to keep line windows open across runs.
	epoch uint64

	tick  uint64
	stats Stats
	reg   *telemetry.Registry
	tr    *telemetry.Tracer

	// filled logs the global way index of every miss fill since the last
	// CaptureImage/RestoreImage, whose image logBase records. Restoring that
	// image, when pristine, then re-zeroes only these ways instead of all
	// Sets×Ways of them — every other way mutation (hit LRU stamps, LineRef
	// stores, flushes) can only touch a way some fill put there first. The
	// log is capacity-bounded (one entry per way); refill-heavy runs that
	// overflow it set fillSpill, and the restore falls back to the full
	// copy. Appends stay allocation-free: the backing array is preallocated
	// and never grows.
	filled    []int32
	fillSpill bool
	logBase   *Image
}

// New builds a cache over ctrl with the given configuration.
func New(ctrl *memctrl.Controller, clock *simtime.Clock, cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets %d is not a positive power of two", cfg.Sets)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	hints := cfg.Sets << bits.Len(uint(cfg.Ways-1))
	return &Cache{
		ctrl:     ctrl,
		clock:    clock,
		cfg:      cfg,
		ways:     make([]way, cfg.Sets*cfg.Ways),
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		hint:     make([]uint8, hints),
		hintMask: uint64(hints - 1),
		setMask:  uint64(cfg.Sets - 1),
		gen:      1,
		filled:   make([]int32, 0, cfg.Sets*cfg.Ways),
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(ctrl *memctrl.Controller, clock *simtime.Clock, cfg Config) *Cache {
	c, err := New(ctrl, clock, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters and, when a sampling registry is attached,
// immediately re-samples the gauges — otherwise exported time-series would
// keep reporting the stale pre-reset values until the next periodic tick.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	if c.reg != nil {
		c.reg.SampleNow()
	}
}

// RegisterTelemetry registers the cache's counters with the registry and
// adopts its tracer for flush spans. The load/store lookup path itself is
// deliberately uninstrumented — it stays plain struct-field increments.
func (c *Cache) RegisterTelemetry(reg *telemetry.Registry) {
	c.reg = reg
	c.tr = reg.Tracer()
	reg.RegisterSource("cache", func(emit func(string, float64)) {
		s := c.stats
		emit("hits", float64(s.Hits))
		emit("misses", float64(s.Misses))
		emit("write_backs", float64(s.WriteBacks))
		emit("flushes", float64(s.Flushes))
		if total := s.Hits + s.Misses; total > 0 {
			emit("hit_ratio", float64(s.Hits)/float64(total))
		}
	})
}

func (c *Cache) setIndex(line physmem.Addr) int {
	return int(uint64(line) >> lineShift & c.setMask)
}

// find returns the way holding line, or nil. The scan walks the packed tag
// array only; a hit touches the way struct itself just once, a miss not at
// all.
func (c *Cache) find(line physmem.Addr) *way {
	if i := c.findIdx(line); i >= 0 {
		return &c.ways[i]
	}
	return nil
}

// findIdx returns the global way index holding line, or -1.
func (c *Cache) findIdx(line physmem.Addr) int {
	base := c.setIndex(line) * c.cfg.Ways
	tag := uint64(line) | 1
	tags := c.tags[base : base+c.cfg.Ways]
	for i := range tags {
		if tags[i] == tag {
			return base + i
		}
	}
	return -1
}

// victim picks the LRU way of set si, writing it back if dirty, and returns
// its way index within the set. The scan replicates the original selection
// exactly (starting from way 0 whatever its validity, breaking at the first
// invalid way from index 1, else the strictly-lowest LRU stamp), so
// eviction order — and with it every downstream memory-traffic number — is
// unchanged.
func (c *Cache) victim(si int) (int, *way) {
	set := c.ways[si*c.cfg.Ways : (si+1)*c.cfg.Ways]
	vi := 0
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if set[i].gen != c.gen {
			vi, v = i, &set[i]
			break
		}
		if set[i].lru < v.lru {
			vi, v = i, &set[i]
		}
	}
	if v.gen == c.gen && v.dirty {
		c.stats.WriteBacks++
		c.clock.Advance(simtime.CostWriteBack)
		c.ctrl.WriteLine(v.line, v.words)
	}
	return vi, v
}

// lookup returns the cache way for line, fetching from DRAM on a miss and
// charging the appropriate hit/miss cost.
func (c *Cache) lookup(line physmem.Addr) *way {
	c.tick++
	if w := c.find(line); w != nil {
		c.stats.Hits++
		c.clock.Advance(simtime.CostCacheHit)
		w.lru = c.tick
		return w
	}
	c.stats.Misses++
	c.clock.Advance(simtime.CostCacheMiss)
	c.epoch++
	si := c.setIndex(line)
	wi, w := c.victim(si)
	// ReadLine runs the ECC path; a watched line raises its fault here, and
	// by the time ReadLine returns the kernel/SafeMem has repaired it, so
	// the fill gets the restored data.
	w.words = c.ctrl.ReadLine(line)
	w.gen = c.gen
	w.dirty = false
	w.line = line
	w.lru = c.tick
	gi := si*c.cfg.Ways + wi
	c.tags[gi] = uint64(line) | 1
	c.hint[uint64(line)>>lineShift&c.hintMask] = uint8(wi)
	if len(c.filled) < cap(c.filled) {
		c.filled = append(c.filled, int32(gi))
	} else {
		c.fillSpill = true
	}
	return w
}

// LoadWord returns the 64-bit ECC group containing physical address a.
func (c *Cache) LoadWord(a physmem.Addr) uint64 {
	w := c.lookup(a.LineAddr())
	return w.words[a.GroupInLine()]
}

// StoreWord writes the full 64-bit ECC group containing a.
func (c *Cache) StoreWord(a physmem.Addr, v uint64) {
	w := c.lookup(a.LineAddr())
	w.words[a.GroupInLine()] = v
	w.dirty = true
}

// LoadBytes reads size bytes (1..8, not crossing a group boundary) at a,
// returned little-endian in the low bytes of the result.
func (c *Cache) LoadBytes(a physmem.Addr, size int) uint64 {
	checkSpan(a, size)
	word := c.LoadWord(a)
	shift := (uint64(a) % physmem.GroupBytes) * 8
	if size == 8 {
		return word
	}
	mask := (uint64(1) << (uint(size) * 8)) - 1
	return (word >> shift) & mask
}

// StoreBytes writes the low size bytes of v (1..8, not crossing a group
// boundary) at a.
func (c *Cache) StoreBytes(a physmem.Addr, size int, v uint64) {
	checkSpan(a, size)
	if size == 8 {
		c.StoreWord(a, v)
		return
	}
	w := c.lookup(a.LineAddr())
	g := a.GroupInLine()
	shift := (uint64(a) % physmem.GroupBytes) * 8
	mask := ((uint64(1) << (uint(size) * 8)) - 1) << shift
	w.words[g] = w.words[g]&^mask | (v<<shift)&mask
	w.dirty = true
}

// LineRef is a handle to a resident cache line opened for a batched access
// run (the machine's fast lane). It is only valid until the next cache
// operation of any kind — lookups, flushes or fills may evict or rewrite
// the underlying way — which the fast lane guarantees by re-probing after
// every slow-path access.
type LineRef struct {
	w *way
}

// OpenLine probes for line without charging cycles, counting a hit, or
// touching LRU state. ok=false means the line is not resident: the run must
// fall back to the slow path, whose miss fill performs the ECC-checked DRAM
// read (and with it any watched-line fault). It is kept small enough to
// inline: the machine's span engine calls it once per line.
func (c *Cache) OpenLine(line physmem.Addr) (LineRef, bool) {
	if i := c.findIdx(line); i >= 0 {
		return LineRef{w: &c.ways[i]}, true
	}
	return LineRef{}, false
}

// Load reads size bytes at byte offset off (0..63) within the opened line,
// data only — hit accounting is settled by CommitRun. The caller has
// already checked that the access does not cross an ECC-group boundary.
func (r LineRef) Load(off uint64, size int) uint64 {
	word := r.w.words[off>>3]
	if size == 8 {
		return word
	}
	shift := (off & 7) * 8
	mask := (uint64(1) << (uint(size) * 8)) - 1
	return (word >> shift) & mask
}

// Store writes the low size bytes of v at byte offset off within the
// opened line and marks it dirty. Same contract as Load.
func (r LineRef) Store(off uint64, size int, v uint64) {
	g := off >> 3
	if size == 8 {
		r.w.words[g] = v
	} else {
		shift := (off & 7) * 8
		mask := ((uint64(1) << (uint(size) * 8)) - 1) << shift
		r.w.words[g] = r.w.words[g]&^mask | (v<<shift)&mask
	}
	r.w.dirty = true
}

// Word and SetWord are the 8-byte-group accessors for the fast lane's
// word-granularity copy loops; g is the group index within the line (0..7).
func (r LineRef) Word(g int) uint64 { return r.w.words[g] }

// SetWord writes group g and marks the line dirty.
func (r LineRef) SetWord(g int, v uint64) {
	r.w.words[g] = v
	r.w.dirty = true
}

// Words exposes the line's backing 8-group array for bulk reads by the fast
// lane's fused loops (word-at-a-time compare). Writers must go through
// Store/SetWord/CopyWords — only the writing accessors maintain the dirty
// bit.
func (r LineRef) Words() *[8]uint64 { return &r.w.words }

// CopyWords copies n groups of src starting at group sg into r starting at
// group dg and marks r dirty — the bulk equivalent of n SetWord(Word) pairs.
func (r LineRef) CopyWords(dg int, src LineRef, sg, n int) {
	copy(r.w.words[dg:dg+n], src.w.words[sg:sg+n])
	r.w.dirty = true
}

// StoreBytesLE writes the low n bytes (1..8) of v little-endian at byte
// offset off — which may straddle a group boundary but not the line — and
// marks the line dirty: the bulk equivalent of n byte Stores.
func (r LineRef) StoreBytesLE(off, n, v uint64) {
	g, b := off>>3, (off&7)*8
	mask := ^uint64(0)
	if n < 8 {
		mask = 1<<(n*8) - 1
		v &= mask
	}
	r.w.words[g] = r.w.words[g]&^(mask<<b) | v<<b
	if b+n*8 > 64 {
		sh := 64 - b
		r.w.words[g+1] = r.w.words[g+1]&^(mask>>sh) | v>>sh
	}
	r.w.dirty = true
}

// CommitRun settles the hit accounting for n batched accesses against r:
// exactly the state n sequential hitting lookups would have produced —
// tick advanced n times, n hits counted, the line's LRU stamp set to the
// final tick. The n·CostCacheHit cycle charge is deliberately left to the
// caller, which folds it into one combined clock Advance per run segment.
// Relative LRU order across lines is preserved (each commit stamps beyond
// every pre-run stamp, and segments commit in access order), so victim
// selection — and with it every downstream memory-traffic number — is
// unchanged; TestBatchLaneCommitOrder pins this.
func (c *Cache) CommitRun(r LineRef, n uint64) {
	c.tick += n
	c.stats.Hits += n
	r.w.lru = c.tick
}

// LineOp is the data step of a whole-line stretch (Lines). The byte steps
// come last: Lines counts 64 elements a line for them and 8 for the rest.
type LineOp uint8

const (
	LoadWordLines  LineOp = iota // each line's eight groups into words
	ScanWordLines                // none: the eight loads' values are discarded
	StoreWordLines               // words into each line's groups
	FillWordLines                // fill into every group
	LoadByteLines                // each line's 64 bytes, little-endian per group, into bytes
	StoreByteLines               // bytes into each line, little-endian per group
)

// Lines serves a whole-line stretch for the machine's span engine: up to k
// consecutive lines from line (at most the rest of a page), each covered
// completely by a run's elements, eight words or 64 bytes a line, moved by
// op from or to words or bytes starting at element i. Per line it pays one
// probe, one data move and one stamp — tick advanced by the line's element
// count and the LRU stamp set to it, as CommitRun would when the run leaves
// the line — and the hits are counted once at the end. The probe tries the
// line's hinted way first and scans the set's tags only when that way does
// not hold the line. It stops at the first line that is not resident, which
// the caller sends to its per-access path, and returns the lines served
// and the last of them (the zero LineRef when none was). CopyLines is its
// two-stream twin.
func (c *Cache) Lines(line physmem.Addr, op LineOp, k uint64, words []uint64, bytes []byte, i, fill uint64) (j uint64, last LineRef) {
	per := uint64(physmem.GroupsPerLine)
	if op >= LoadByteLines {
		per = physmem.LineBytes
	}
	nw := c.cfg.Ways
	for ; j < k; j++ {
		// The probe stays in the loop: through a call the compiler would
		// not inline, it gives back most of what the hint saves.
		hi := uint64(line) >> lineShift & c.hintMask
		base := int(hi&c.setMask) * nw
		w := &c.ways[base+int(c.hint[hi])]
		if w.line != line || w.gen != c.gen {
			wi := c.findIdx(line)
			if wi < 0 {
				break
			}
			c.hint[hi] = uint8(wi - base)
			w = &c.ways[wi]
		}
		// Group by group: an array assignment between two pointers
		// compiles to a memmove call.
		d := &w.words
		switch op {
		case LoadWordLines:
			s := (*[physmem.GroupsPerLine]uint64)(words[i+j*physmem.GroupsPerLine:])
			s[0], s[1], s[2], s[3] = d[0], d[1], d[2], d[3]
			s[4], s[5], s[6], s[7] = d[4], d[5], d[6], d[7]
		case StoreWordLines:
			s := (*[physmem.GroupsPerLine]uint64)(words[i+j*physmem.GroupsPerLine:])
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			w.dirty = true
		case FillWordLines:
			d[0], d[1], d[2], d[3] = fill, fill, fill, fill
			d[4], d[5], d[6], d[7] = fill, fill, fill, fill
			w.dirty = true
		case LoadByteLines:
			b := (*[physmem.LineBytes]byte)(bytes[i+j*physmem.LineBytes:])
			for g, v := range d {
				binary.LittleEndian.PutUint64(b[g*physmem.GroupBytes:], v)
			}
		case StoreByteLines:
			b := (*[physmem.LineBytes]byte)(bytes[i+j*physmem.LineBytes:])
			for g := range d {
				d[g] = binary.LittleEndian.Uint64(b[g*physmem.GroupBytes:])
			}
			w.dirty = true
		}
		c.tick += per
		w.lru = c.tick
		last, line = LineRef{w}, line+physmem.LineBytes
	}
	c.stats.Hits += j * per
	return j, last
}

// CopyLines serves a whole-line stretch of a co-aligned word copy for the
// machine's span engine: up to k consecutive lines from line (at most the
// rest of either page), each copied whole, eight groups, into the line at
// the same offset from to. Per line it pays one tag probe a stream, one
// move and one stamp a stream — tick advanced by the line's eight elements
// and the source's LRU stamp set to it, then the same for the destination,
// the order their last accesses take on the per-access path — and the
// hits are counted once at the end. It stops at the first line that is not
// resident on either stream, which the caller sends to its per-access
// path, and returns the lines served and the last of them on each stream
// (zero LineRefs when none was).
//
// It is a loop of its own rather than a step of Lines: a second stream's
// probe and stamp in Lines' loop cost its single-stream steps about a
// fifth of their time.
func (c *Cache) CopyLines(line, to physmem.Addr, k uint64) (j uint64, last, lastTo LineRef) {
	const per = physmem.GroupsPerLine
	for ; j < k; j++ {
		w := c.find(line)
		if w == nil {
			break
		}
		wt := c.find(to)
		if wt == nil {
			break
		}
		d, t := &w.words, &wt.words
		t[0], t[1], t[2], t[3] = d[0], d[1], d[2], d[3]
		t[4], t[5], t[6], t[7] = d[4], d[5], d[6], d[7]
		wt.dirty = true
		c.tick += per
		w.lru = c.tick
		c.tick += per
		wt.lru = c.tick
		last, lastTo = LineRef{w}, LineRef{wt}
		line, to = line+physmem.LineBytes, to+physmem.LineBytes
	}
	c.stats.Hits += 2 * j * per
	return j, last, lastTo
}

func checkSpan(a physmem.Addr, size int) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("cache: access size %d out of range", size))
	}
	if uint64(a)%physmem.GroupBytes+uint64(size) > physmem.GroupBytes {
		panic(fmt.Sprintf("cache: access at %#x size %d crosses ECC-group boundary", uint64(a), size))
	}
}

// FlushLine writes the line back to DRAM if dirty and invalidates it, so the
// next access must go to memory. This is the clflush WatchMemory relies on.
func (c *Cache) FlushLine(line physmem.Addr) {
	if !line.IsLineAligned() {
		panic(fmt.Sprintf("cache: FlushLine at unaligned address %#x", uint64(line)))
	}
	sp := c.tr.Begin("cache", "flush-line", telemetry.KV("line", uint64(line)))
	defer sp.End()
	c.stats.Flushes++
	c.clock.Advance(simtime.CostLineFlush)
	wi := c.findIdx(line)
	if wi < 0 {
		return
	}
	w := &c.ways[wi]
	if w.dirty {
		c.stats.WriteBacks++
		c.clock.Advance(simtime.CostWriteBack)
		c.ctrl.WriteLine(w.line, w.words)
	}
	w.gen = 0
	w.dirty = false
	c.tags[wi] = 0
	c.epoch++
}

// PeekWord returns the current value of the ECC group containing a as the
// CPU would observe it — from the cache if the line is resident (it may be
// dirty), else from DRAM — without charging cycles, updating LRU state, or
// running the ECC check path. Debug/scan use only (Purify's mark-and-sweep
// scanner, bug reporters).
func (c *Cache) PeekWord(a physmem.Addr) uint64 {
	if w := c.find(a.LineAddr()); w != nil {
		return w.words[a.GroupInLine()]
	}
	d, _ := c.ctrl.Memory().ReadGroupRaw(a.GroupAddr())
	return d
}

// Contains reports whether line is currently cached (for tests).
func (c *Cache) Contains(line physmem.Addr) bool { return c.find(line) != nil }

// FlushFrame writes back and invalidates every cached line of the 4 KiB
// physical frame at base. The kernel calls it around page swaps and frame
// reuse: without it, dirty lines would be written back into a frame after
// it has been handed to a new owner, and stale clean lines would serve a
// new owner the previous tenant's data.
func (c *Cache) FlushFrame(base physmem.Addr) {
	sp := c.tr.Begin("cache", "flush-frame", telemetry.KV("frame", uint64(base)))
	defer sp.End()
	for off := physmem.Addr(0); off < 4096; off += physmem.LineBytes {
		if wi := c.findIdx(base + off); wi >= 0 {
			w := &c.ways[wi]
			if w.dirty {
				c.stats.WriteBacks++
				c.clock.Advance(simtime.CostWriteBack)
				c.ctrl.WriteLine(w.line, w.words)
			}
			w.gen = 0
			w.dirty = false
			c.tags[wi] = 0
			c.epoch++
		}
	}
	c.clock.Advance(simtime.CostLineFlush)
}

// FlushAll writes back and invalidates every line (used when the kernel
// swaps a page out). Write-backs keep the classic set-major order; way
// invalidation is a single generation bump, plus a clear of the packed tag
// array (32 KiB for the default geometry — cheap next to the swap itself).
func (c *Cache) FlushAll() {
	sp := c.tr.Begin("cache", "flush-all")
	defer sp.End()
	for i := range c.ways {
		w := &c.ways[i]
		if w.gen == c.gen && w.dirty {
			c.stats.WriteBacks++
			c.clock.Advance(simtime.CostWriteBack)
			c.ctrl.WriteLine(w.line, w.words)
		}
	}
	c.gen++
	c.epoch++
	clear(c.tags)
}

// Epoch returns the residency-mutation counter. Any LineRef obtained at an
// older epoch must be re-derived through OpenLine.
func (c *Cache) Epoch() uint64 { return c.epoch }

// Image is a checkpoint of the cache's simulated state (ways, tags, LRU
// clock, counters), taken with CaptureImage. A pristine image — captured
// from a cache that holds no lines — stores no way copies at all, and
// restoring it costs O(fills since capture) via the fill log.
type Image struct {
	c        *Cache
	pristine bool
	ways     []way
	tags     []uint64
	gen      uint64
	tick     uint64
	stats    Stats
}

// CaptureImage checkpoints the cache and resets the fill log, so a later
// RestoreImage knows which ways diverged.
func (c *Cache) CaptureImage() *Image {
	img := &Image{c: c, gen: c.gen, tick: c.tick, stats: c.stats, pristine: true}
	empty := way{}
	for i := range c.ways {
		if c.ways[i] != empty || c.tags[i] != 0 {
			img.pristine = false
			break
		}
	}
	if !img.pristine {
		img.ways = append([]way(nil), c.ways...)
		img.tags = append([]uint64(nil), c.tags...)
	}
	c.filled = c.filled[:0]
	c.fillSpill = false
	c.logBase = img
	return img
}

// RestoreImage puts the cache back into the captured state and counts one
// residency mutation (epoch bump), like any other invalidation. For a
// pristine image whose capture or restore the fill log started from, with
// the log intact, only the ways filled since are re-zeroed; otherwise every
// way is rewritten from the image (or zeroed, for a pristine image) —
// slower, never wrong.
func (c *Cache) RestoreImage(img *Image) {
	if img.c != c {
		panic("cache: RestoreImage with an image captured from a different cache")
	}
	switch {
	case img.pristine && !c.fillSpill && c.logBase == img:
		empty := way{}
		for _, gi := range c.filled {
			c.ways[gi] = empty
			c.tags[gi] = 0
		}
	case img.pristine:
		for i := range c.ways {
			c.ways[i] = way{}
		}
		clear(c.tags)
	default:
		copy(c.ways, img.ways)
		copy(c.tags, img.tags)
	}
	c.gen = img.gen
	c.tick = img.tick
	c.stats = img.stats
	c.epoch++
	c.filled = c.filled[:0]
	c.fillSpill = false
	c.logBase = img
}
