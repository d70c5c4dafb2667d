package machine

import (
	"sync"
	"sync/atomic"
)

// Pool reuses machines of one Config across runs, so short runs stop paying
// machine construction (a cold New allocates the cache arrays, page tables
// and bitmaps, under a millisecond at the default DRAM size, and its first
// run then allocates every DRAM chunk it writes) and can reuse the per-run
// storage earlier runs parked on the machine (PutSpare). Get hands out a
// pristine machine: a recycled one when the pool holds any, else a freshly
// built one. Done ends the run and holds
// the taint rule: only a machine whose run ended cleanly is recycled back
// into the pool; one whose run errored, panicked or failed set-up is
// dropped, trading one rebuild for certainty. Callers defer Done, so a
// panic unwinding through them counts as a drop.
//
// Idle machines sit in a sync.Pool: the pool pins about as many machines as
// its callers use at once, and two garbage collections without reuse empty
// it, so the next Get builds fresh. A recycled machine is observationally
// identical to a fresh one (TestMachineRecycleEquivalence), so pooling
// changes host time only, never simulated results. A pool of a Reference
// Config never recycles: every Get builds fresh, the oracle pooled
// machines are compared against.
type Pool struct {
	cfg  Config
	idle sync.Pool

	released, dropped, built atomic.Uint64
}

// PoolStats counts a pool's traffic since it was created.
type PoolStats struct {
	// Released counts machines recycled back into the pool.
	Released uint64
	// Dropped counts machines withheld from the pool by the taint rule.
	Dropped uint64
	// Built counts Gets the pool could not serve, each a cold New.
	Built uint64
}

// NewPool returns an empty pool of machines built from cfg. cfg should not
// carry a Telemetry registry: Recycle keeps the registry, so every run on a
// pooled machine would report into it.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Get returns a pristine machine, recycled or freshly built.
func (p *Pool) Get() (*Machine, error) {
	if v := p.idle.Get(); v != nil {
		return v.(*Machine), nil
	}
	m, err := New(p.cfg)
	if err != nil {
		return nil, err
	}
	p.built.Add(1)
	return m, nil
}

// Done ends m's run: clean recycles m into the pool, otherwise m is dropped.
// A Reference pool discards clean machines without recycling them. Done on
// a nil Pool does nothing, so a caller holding an unpooled machine needs no
// special case.
func (p *Pool) Done(m *Machine, clean bool) {
	if p == nil {
		return
	}
	if !clean {
		p.dropped.Add(1)
		return
	}
	if p.cfg.Reference {
		return
	}
	m.Recycle()
	p.idle.Put(m)
	p.released.Add(1)
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Released: p.released.Load(), Dropped: p.dropped.Load(), Built: p.built.Load()}
}
