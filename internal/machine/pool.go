package machine

import (
	"sync"
	"sync/atomic"
)

// Pool reuses machines across runs, so short runs stop paying machine
// construction (a cold New allocates the cache arrays, page tables and
// bitmaps, and its first run every DRAM chunk it writes) and reuse the
// per-run storage earlier runs parked on the machine (PutSpare). Get hands
// out a pristine machine of a Config, recycled when one is idle, else built
// fresh. Done ends the run. The whole pooling policy lives here:
//
//   - The taint rule: only a machine whose run ended cleanly is recycled;
//     one whose run errored, panicked or failed set-up is dropped, trading
//     one rebuild for certainty. Callers defer Done, so a panic unwinding
//     through them counts as a drop.
//   - A Reference Config never recycles: every Get builds fresh, the oracle
//     pooled machines are compared against.
//   - A Config carrying a Telemetry registry is never pooled and counts
//     nowhere: Recycle keeps the registry, which is that run's output.
//
// Each Config has a LIFO list of idle machines. A GC never drains it, and
// it holds at most as many machines as its callers used at once. A
// recycled machine is observationally identical to a fresh one
// (TestMachineRecycleEquivalence), so pooling changes host time only. The
// zero Pool is ready to use; Get, Done and PoolTotals share one
// process-wide Pool.
type Pool struct {
	mu   sync.Mutex
	idle map[Config][]*Machine

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

// Get returns a pristine machine of cfg, recycled or freshly built.
func (p *Pool) Get(cfg Config) (*Machine, error) {
	if cfg.Telemetry != nil {
		return New(cfg)
	}
	p.mu.Lock()
	if list := p.idle[cfg]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		p.idle[cfg] = list[:len(list)-1]
		p.mu.Unlock()
		return m, nil
	}
	p.mu.Unlock()
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.built.Add(1)
	return m, nil
}

// Done ends the run of m, which Get returned: clean recycles m into the
// pool, otherwise m is dropped.
func (p *Pool) Done(m *Machine, clean bool) {
	cfg := m.cfg
	switch {
	case cfg.Telemetry != nil:
		return
	case !clean:
		p.dropped.Add(1)
		return
	case cfg.Reference:
		return
	}
	m.Recycle()
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[Config][]*Machine)
	}
	p.idle[cfg] = append(p.idle[cfg], m)
	p.mu.Unlock()
	p.released.Add(1)
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Released: p.released.Load(), Dropped: p.dropped.Load(), Built: p.built.Load()}
}

// shared is the process-wide pool campaign, bench and fleet runs draw on.
var shared Pool

// Get returns a pristine machine of cfg from the process-wide pool.
func Get(cfg Config) (*Machine, error) { return shared.Get(cfg) }

// Done ends the run of a machine Get returned (Pool.Done).
func Done(m *Machine, clean bool) { shared.Done(m, clean) }

// PoolTotals returns the process-wide pool's counters, over every Config.
func PoolTotals() PoolStats { return shared.Stats() }
