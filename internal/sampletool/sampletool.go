// Package sampletool implements a GWP-ASan-style sampling front-end over
// the SafeMem detector: only ~1/N allocations (seed-deterministic) are
// admitted to the ECC-watched pool — guard lines, freed-memory watches,
// leak bookkeeping — while the rest run completely unwatched on the TLB
// fast path. The per-run cost therefore shrinks toward zero as N grows,
// and detection is recovered in aggregate: across k independently seeded
// runs, a bug on a given allocation site is caught with probability
// 1-(1-1/N)^k (see DESIGN.md §4.9 and the `-experiment frontier` sweep in
// internal/bench).
//
// The sampling decision is drawn host-side from a splitmix64 stream and
// charges zero simulated cycles, so a rate-1 tool is bit-for-bit
// equivalent to the full SafeMem tool — the property the differential
// tests pin.
package sampletool

import (
	safemem "safemem/internal/core"
	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/vm"
)

// Options configures a sampling tool.
type Options struct {
	// Rate is the sampling rate N: each allocation is admitted to the
	// watched pool independently with probability 1/N. Rate ≤ 1 samples
	// every allocation (full SafeMem).
	Rate int
	// Seed seeds the splitmix64 decision stream. Two tools with the same
	// seed and rate sample the same allocation sequence.
	Seed uint64
	// SafeMem configures the inner detector applied to sampled
	// allocations. DefaultOptions uses the GWP-ASan scope — corruption
	// only — because leak heuristics over a sampled sub-population compare
	// against full-population thresholds.
	SafeMem safemem.Options
}

// DefaultOptions returns the GWP-ASan-style configuration: corruption
// detection only, at the given rate and seed.
func DefaultOptions(rate int, seed uint64) Options {
	inner := safemem.DefaultOptions()
	inner.DetectLeaks = false
	return Options{Rate: rate, Seed: seed, SafeMem: inner}
}

// Stats counts the sampler's own activity; the inner detector's counters
// are available via SafeMemStats.
type Stats struct {
	// Sampled and Unsampled count the allocation-stream split.
	Sampled   uint64
	Unsampled uint64
	// PoolLive is the number of sampled allocations currently live;
	// PoolPeak is its high-water mark.
	PoolLive uint64
	PoolPeak uint64
	// SampledFrees counts frees of sampled allocations (which arm a
	// freed-memory watch); UnsampledFrees counts the rest.
	SampledFrees   uint64
	UnsampledFrees uint64
	// StaleUnwatches counts watch regions disarmed because an unsampled
	// allocation reused a watched freed extent.
	StaleUnwatches uint64
	// Detections counts inner bug reports (leaks + corruption).
	Detections uint64
}

// splitmix64 — the same stable generator the campaign uses, so sampling
// decisions are identical across Go releases.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Tool is an attached sampling detector. It registers itself as the heap
// hook and forwards only the sampled subset of events to an inner SafeMem
// tool attached via safemem.AttachWithoutHook.
type Tool struct {
	m     *machine.Machine
	alloc *heap.Allocator
	inner *safemem.Tool
	opts  Options
	rng   rng
	pool  map[vm.VAddr]struct{} // user pointers of live sampled blocks
	stats Stats
}

// Attach wires a sampling tool onto machine m and allocator alloc. The
// allocator must satisfy the same layout contract as for safemem.Attach
// (cache-line alignment; guard padding when corruption detection is on).
func Attach(m *machine.Machine, alloc *heap.Allocator, opts Options) (*Tool, error) {
	if opts.Rate < 1 {
		opts.Rate = 1
	}
	inner, err := safemem.AttachWithoutHook(m, alloc, opts.SafeMem)
	if err != nil {
		return nil, err
	}
	t := &Tool{
		m:     m,
		alloc: alloc,
		inner: inner,
		opts:  opts,
		rng:   rng{state: opts.Seed},
		pool:  make(map[vm.VAddr]struct{}),
	}
	alloc.AddHook(t)
	m.Telemetry.RegisterSource("sample", func(emit func(string, float64)) {
		s := t.Stats()
		emit("sampled_allocs", float64(s.Sampled))
		emit("unsampled_allocs", float64(s.Unsampled))
		emit("pool_live", float64(s.PoolLive))
		emit("pool_peak", float64(s.PoolPeak))
		emit("stale_unwatches", float64(s.StaleUnwatches))
		emit("detections", float64(s.Detections))
	})
	return t, nil
}

// Options returns the tool's configuration (with Rate normalised to ≥ 1).
func (t *Tool) Options() Options { return t.opts }

// Inner returns the wrapped SafeMem tool.
func (t *Tool) Inner() *safemem.Tool { return t.inner }

// Sampled reports whether the live allocation at user pointer va was
// admitted to the watched pool.
func (t *Tool) Sampled(va vm.VAddr) bool {
	_, ok := t.pool[va]
	return ok
}

// Stats returns a copy of the sampler's counters.
func (t *Tool) Stats() Stats {
	s := t.stats
	s.PoolLive = uint64(len(t.pool))
	is := t.inner.Stats()
	s.Detections = is.LeaksReported + is.CorruptionReported
	return s
}

// SafeMemStats returns the inner detector's counters.
func (t *Tool) SafeMemStats() safemem.Stats { return t.inner.Stats() }

// Reports returns the inner detector's bug reports, in detection order.
func (t *Tool) Reports() []safemem.BugReport { return t.inner.Reports() }

// Shutdown runs the inner detector's program-exit pass and disarms every
// watch. Returns the newly produced reports.
func (t *Tool) Shutdown() []safemem.BugReport { return t.inner.Shutdown() }

// OnAlloc implements heap.Hook: draw the sampling decision and either
// admit the block to the watched pool or leave it bare. The draw happens
// host-side and charges zero simulated cycles — an unsampled allocation is
// indistinguishable from one under no tool at all.
func (t *Tool) OnAlloc(b *heap.Block) {
	if t.opts.Rate <= 1 || t.rng.next()%uint64(t.opts.Rate) == 0 {
		t.stats.Sampled++
		t.pool[b.Addr] = struct{}{}
		if n := uint64(len(t.pool)); n > t.stats.PoolPeak {
			t.stats.PoolPeak = n
		}
		t.inner.OnAlloc(b)
		return
	}
	t.stats.Unsampled++
	// The allocator may have carved this block out of a watched freed
	// extent; the stale watch must be disarmed even though the new tenant
	// goes unwatched, or its ordinary accesses would trip it.
	t.stats.StaleUnwatches += uint64(t.inner.UnwatchRange(b.FullAddr, b.FullSize))
}

// OnFree implements heap.Hook: sampled blocks get the full free-side
// treatment (freed-memory watch over the extent); unsampled blocks return
// to the free list bare.
func (t *Tool) OnFree(b *heap.Block) {
	if _, ok := t.pool[b.Addr]; ok {
		delete(t.pool, b.Addr)
		t.stats.SampledFrees++
		t.inner.OnFree(b)
		return
	}
	t.stats.UnsampledFrees++
}

// CheckInvariants verifies the sampler's bookkeeping against the heap and
// the inner watch indices: every pool entry is a live block, no unsampled
// live block carries a watch inside its extent, and the inner region/line
// maps agree. Fuzz harnesses call this after every operation.
func (t *Tool) CheckInvariants() error {
	if err := t.inner.CheckWatchInvariants(); err != nil {
		return err
	}
	live := make(map[vm.VAddr]*heap.Block)
	for _, b := range t.alloc.LiveBlocks() {
		live[b.Addr] = b
	}
	for va := range t.pool {
		if _, ok := live[va]; !ok {
			return errPoolEntry(va)
		}
	}
	for va, b := range live {
		if _, sampled := t.pool[va]; sampled {
			continue
		}
		if t.inner.Watched(b.FullAddr, b.FullSize) {
			return errUnsampledWatched(va)
		}
	}
	return nil
}
