// Package faultmodel is a seed-deterministic DRAM fault process: a
// background "physics" source that plants bit faults while a workload runs,
// driven by the simulated clock rather than the program's access stream.
// Where package inject answers "what happens if a fault lands HERE", this
// package answers "what does a production run on flaky DIMMs look like" —
// faults arrive on their own schedule, in realistic classes:
//
//   - transient upsets: one-shot single-bit flips at random addresses (the
//     cosmic-ray/alpha-particle events ECC exists for);
//   - intermittent faults: a weak cell that keeps re-flipping the same bit
//     a few times before going quiet (marginal hardware);
//   - stuck-at cells: a bit that permanently holds one value — every
//     write-back that disagrees is silently re-corrupted until the frame
//     is retired;
//   - error storms: bounded episodes during which the arrival rate
//     multiplies (a failing DIMM, a thermal event).
//
// Inter-arrival times are exponential, drawn from a splitmix64 stream, so a
// seed pins the entire fault history. Every plant goes through the
// campaign's inject.Injector, so ECC events stay attributable to ground
// truth — the oracle can tell a planted fault's detection from a detector
// false positive.
//
// The clock-timer hook never touches memory itself: it only decides what
// fault happens and defers the plant to the kernel's deferred-work queue,
// which drains between machine accesses. Planting mid-access would let a
// cache flush race the access in flight.
package faultmodel

import (
	"math"

	"safemem/internal/heap"
	"safemem/internal/inject"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/obsrv/flight"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// Config parameterises the fault process. Zero-valued fields take defaults.
type Config struct {
	// Seed pins the fault history (sites, bits, classes, timing).
	Seed uint64
	// MeanInterval is the mean inter-arrival time between fault events
	// outside storms. Default 200_000 cycles.
	MeanInterval simtime.Cycles
	// TransientWeight / IntermittentWeight / StuckAtWeight set the fault
	// class mix. Defaults 6 / 3 / 1.
	TransientWeight    int
	IntermittentWeight int
	StuckAtWeight      int
	// DoubleBitFrac makes 1-in-N transient events double-bit
	// (uncorrectable). 0 means the default of 8; negative disables
	// double-bit plants entirely (single-bit-only campaigns).
	DoubleBitFrac int
	// IntermittentRepeats is how many times a weak cell re-fires after its
	// first flip (default 3); IntermittentGap is the spacing (default
	// MeanInterval/4).
	IntermittentRepeats int
	IntermittentGap     simtime.Cycles
	// MaxStuckCells bounds live stuck-at cells (default 2). Further
	// stuck-at draws become transients.
	MaxStuckCells int
	// StuckCheckInterval is how often stuck cells re-assert themselves
	// (default MeanInterval/2).
	StuckCheckInterval simtime.Cycles
	// StormInterval, when non-zero, enables storm episodes with the given
	// mean spacing; StormLength is the episode duration (default
	// 4×MeanInterval) and StormFactor the rate multiplier inside one
	// (default 8).
	StormInterval simtime.Cycles
	StormLength   simtime.Cycles
	StormFactor   int
	// Targets restricts fault sites to the given virtual regions. Required:
	// with no targets the process plants nothing.
	Targets []inject.Region
}

// Stats counts fault-process activity.
type Stats struct {
	Events       uint64 // fresh faults planted (all classes)
	Transient    uint64
	Intermittent uint64
	StuckAt      uint64 // stuck cells created
	DoubleBit    uint64
	Refires      uint64 // weak-cell and stuck-at re-assertions planted
	Storms       uint64 // storm episodes entered
	Skipped      uint64 // plants dropped (page not resident)
}

// splitmix64 — the same stable stream the campaign generator uses; the
// fault history must mean the same thing for a seed forever.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential inter-arrival with the given mean, never zero.
func (r *rng) exp(mean simtime.Cycles) simtime.Cycles {
	// 53-bit mantissa draw in (0,1]; -ln(u)·mean is the inverse CDF.
	u := (float64(r.next()>>11) + 1) / (1 << 53)
	d := simtime.Cycles(-math.Log(u) * float64(mean))
	return d + 1
}

// weakCell is a scheduled repeating fault: an intermittent cell counting
// down its re-fires, or a stuck-at cell (remaining < 0, never expires).
type weakCell struct {
	at        simtime.Cycles
	va        vm.VAddr
	bit       uint
	stuck     bool // stuck-at: re-assert the held value forever
	stuckVal  bool
	remaining int // intermittent re-fires left
}

// Process is a running fault process. Create with Start.
type Process struct {
	m   *machine.Machine
	in  *inject.Injector
	cfg Config
	r   rng

	timer     *simtime.Timer
	nextEvent simtime.Cycles
	cells     []weakCell

	stormUntil  simtime.Cycles
	nextStormAt simtime.Cycles

	// pending holds the queued plants and re-fires in queue order, from
	// head on; each has one kernel Defer of runPending, so they run
	// interleaved with other deferred work exactly as one closure each
	// would, without a closure allocation per fault.
	pending    []pendingPlant
	head       int
	runPending func()

	stopped bool
	stats   Stats

	// The callbacks Start registers, bound once per Process value.
	onFire func(now simtime.Cycles) simtime.Cycles
	source func(emit func(string, float64))
}

// spareKey is the machine spare slot of a released Process.
type spareKey struct{}

// pendingPlant is one deferred plant (refire false) or weak/stuck cell
// re-assertion (refire true).
type pendingPlant struct {
	refire bool
	va     vm.VAddr
	double bool
	b1, b2 uint
	cell   weakCell
}

// Start launches the fault process on m, planting through in. The process
// registers a clock timer and a "faultmodel" telemetry source. When a
// previous run on m ended with Release, its process's storage is reset and
// reused.
func Start(m *machine.Machine, in *inject.Injector, cfg Config) *Process {
	if cfg.MeanInterval <= 0 {
		cfg.MeanInterval = 200_000
	}
	if cfg.TransientWeight <= 0 && cfg.IntermittentWeight <= 0 && cfg.StuckAtWeight <= 0 {
		cfg.TransientWeight, cfg.IntermittentWeight, cfg.StuckAtWeight = 6, 3, 1
	}
	if cfg.TransientWeight < 0 {
		cfg.TransientWeight = 0
	}
	if cfg.IntermittentWeight < 0 {
		cfg.IntermittentWeight = 0
	}
	if cfg.StuckAtWeight < 0 {
		cfg.StuckAtWeight = 0
	}
	if cfg.DoubleBitFrac == 0 {
		cfg.DoubleBitFrac = 8
	}
	if cfg.IntermittentRepeats <= 0 {
		cfg.IntermittentRepeats = 3
	}
	if cfg.IntermittentGap <= 0 {
		cfg.IntermittentGap = cfg.MeanInterval / 4
	}
	if cfg.MaxStuckCells <= 0 {
		cfg.MaxStuckCells = 2
	}
	if cfg.StuckCheckInterval <= 0 {
		cfg.StuckCheckInterval = cfg.MeanInterval / 2
	}
	if cfg.StormInterval > 0 {
		if cfg.StormLength <= 0 {
			cfg.StormLength = 4 * cfg.MeanInterval
		}
		if cfg.StormFactor <= 1 {
			cfg.StormFactor = 8
		}
	}
	p, _ := m.TakeSpare(spareKey{}).(*Process)
	if p == nil {
		p = &Process{}
		p.runPending = p.runNext
		p.onFire = p.fire
		p.source = p.emitTelemetry
	}
	*p = Process{
		m: m, in: in, cfg: cfg, r: rng{state: cfg.Seed ^ 0xd1a6f0},
		cells:      p.cells[:0],
		pending:    p.pending[:0],
		runPending: p.runPending,
		onFire:     p.onFire,
		source:     p.source,
	}
	now := m.Clock.Now()
	p.nextEvent = now + p.r.exp(p.interval(now))
	if cfg.StormInterval > 0 {
		p.nextStormAt = now + p.r.exp(cfg.StormInterval)
	}
	m.Telemetry.RegisterSource("faultmodel", p.source)
	p.timer = m.Clock.NewTimer(p.deadline(), p.onFire)
	return p
}

// Release ends the process's run: the caller promises not to use p again,
// and the next Start on the same machine reuses p's storage
// (machine.PutSpare). Results must be read (Stats) before.
func (p *Process) Release() { p.m.PutSpare(spareKey{}, p) }

// emitTelemetry is the process's telemetry source.
func (p *Process) emitTelemetry(emit func(string, float64)) {
	s := p.stats
	emit("events", float64(s.Events))
	emit("transient", float64(s.Transient))
	emit("intermittent", float64(s.Intermittent))
	emit("stuck_at", float64(s.StuckAt))
	emit("double_bit", float64(s.DoubleBit))
	emit("refires", float64(s.Refires))
	emit("storms", float64(s.Storms))
	emit("skipped", float64(s.Skipped))
}

// StartFlaky puts m on flaky DIMMs: the one policy behind the bench
// harness's and the campaign's -fault-rate / -storm / -retire knobs.
//
// With retire the kernel survives uncorrectable errors by page retirement
// (RetireAndContinue), whether or not a fault process runs. With a
// positive rate, a fault process seeded from seed plants rate events per
// million cycles over the whole arena alloc may ever grow into (plants on
// not-yet-resident pages are skipped, as faults in unused rows go
// unobserved); storm adds error-storm episodes at 8× the mean interval,
// and without retire only single-bit (correctable) faults are planted — a
// random double-bit on an unwatched line would panic the stock kernel.
// The kernel's scrub daemon then keeps latent singles from pairing up into
// uncorrectable errors. StartFlaky returns the process, or nil when rate
// is not positive.
func StartFlaky(m *machine.Machine, in *inject.Injector, alloc *heap.Allocator, seed uint64, rate float64, storm, retire bool) *Process {
	if retire {
		m.Kern.SetResilience(kernel.ResilienceOptions{Policy: kernel.RetireAndContinue})
	}
	if rate <= 0 {
		return nil
	}
	base, _ := alloc.ArenaRange()
	cfg := Config{
		// Decorrelate from the injector's bit stream but stay pinned to
		// the workload seed.
		Seed:         seed ^ 0x5afe,
		MeanInterval: simtime.Cycles(1_000_000 / rate),
		Targets:      []inject.Region{{Base: base, Size: alloc.Options().Limit}},
	}
	if storm {
		cfg.StormInterval = 8 * cfg.MeanInterval
	}
	if !retire {
		cfg.DoubleBitFrac = -1
	}
	p := Start(m, in, cfg)
	m.Kern.StartScrubDaemon(kernel.ScrubDaemonOptions{})
	return p
}

// Stop halts the process. Pending deferred plants still drain; no new
// faults are scheduled.
func (p *Process) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.timer.Stop()
}

// Stats returns a copy of the counters.
func (p *Process) Stats() Stats { return p.stats }

// InStorm reports whether a storm episode is in progress.
func (p *Process) InStorm() bool { return p.m.Clock.Now() < p.stormUntil }

// interval is the current mean inter-arrival, storm-adjusted.
func (p *Process) interval(now simtime.Cycles) simtime.Cycles {
	if now < p.stormUntil {
		return p.cfg.MeanInterval / simtime.Cycles(p.cfg.StormFactor)
	}
	return p.cfg.MeanInterval
}

// deadline is the earliest pending event time.
func (p *Process) deadline() simtime.Cycles {
	d := p.nextEvent
	if p.nextStormAt != 0 && p.nextStormAt < d {
		d = p.nextStormAt
	}
	for _, c := range p.cells {
		if c.at < d {
			d = c.at
		}
	}
	return d
}

// fire is the clock-timer hook. It only makes decisions and defers the
// actual plants; memory is never touched from timer context.
func (p *Process) fire(now simtime.Cycles) simtime.Cycles {
	if p.stopped {
		return 0 // deactivate
	}
	if p.nextStormAt != 0 && now >= p.nextStormAt {
		p.stormUntil = now + p.cfg.StormLength
		p.nextStormAt = now + p.cfg.StormLength + p.r.exp(p.cfg.StormInterval)
		p.stats.Storms++
	}
	for i := range p.cells {
		c := &p.cells[i]
		if now < c.at {
			continue
		}
		p.deferRefire(*c)
		if c.stuck {
			c.at = now + p.cfg.StuckCheckInterval
		} else {
			c.remaining--
			if c.remaining <= 0 {
				c.at = 0 // retire below
			} else {
				c.at = now + p.cfg.IntermittentGap
			}
		}
	}
	// Compact expired intermittent cells.
	live := p.cells[:0]
	for _, c := range p.cells {
		if c.at != 0 {
			live = append(live, c)
		}
	}
	p.cells = live
	if now >= p.nextEvent {
		p.spawn(now)
		p.nextEvent = now + p.r.exp(p.interval(now))
	}
	return p.deadline()
}

// spawn decides one fresh fault event and defers its plant.
func (p *Process) spawn(now simtime.Cycles) {
	va, ok := p.site()
	if !ok {
		p.stats.Skipped++
		return
	}
	total := p.cfg.TransientWeight + p.cfg.IntermittentWeight + p.cfg.StuckAtWeight
	draw := p.r.intn(total)
	bit := uint(p.r.intn(64))
	switch {
	case draw < p.cfg.TransientWeight:
		double := p.cfg.DoubleBitFrac > 0 && p.r.intn(p.cfg.DoubleBitFrac) == 0
		b2 := uint(p.r.intn(63))
		if b2 >= bit {
			b2++
		}
		p.stats.Events++
		p.stats.Transient++
		if double {
			p.stats.DoubleBit++
		}
		p.deferPlant(va, double, bit, b2)
	case draw < p.cfg.TransientWeight+p.cfg.IntermittentWeight:
		p.stats.Events++
		p.stats.Intermittent++
		p.cells = append(p.cells, weakCell{
			at: now + p.cfg.IntermittentGap, va: va, bit: bit,
			remaining: p.cfg.IntermittentRepeats,
		})
		p.deferPlant(va, false, bit, 0)
	default:
		nStuck := 0
		for _, c := range p.cells {
			if c.stuck {
				nStuck++
			}
		}
		if nStuck >= p.cfg.MaxStuckCells {
			// Enough permanent damage already; degrade to a transient.
			p.stats.Events++
			p.stats.Transient++
			p.deferPlant(va, false, bit, 0)
			return
		}
		p.stats.Events++
		p.stats.StuckAt++
		// The cell sticks at the COMPLEMENT of its current value, so the
		// first assertion is an immediate flip.
		cur, resident := p.in.DataBit(va, bit)
		if !resident {
			p.stats.Skipped++
			return
		}
		p.cells = append(p.cells, weakCell{
			at: now + p.cfg.StuckCheckInterval, va: va, bit: bit,
			stuck: true, stuckVal: !cur,
		})
		p.deferPlant(va, false, bit, 0)
	}
}

// deferPlant queues one plant for the next deferred-work point.
func (p *Process) deferPlant(va vm.VAddr, double bool, b1, b2 uint) {
	p.pending = append(p.pending, pendingPlant{va: va, double: double, b1: b1, b2: b2})
	p.m.Kern.Defer(p.runPending)
}

// deferRefire queues a weak/stuck cell re-assertion.
func (p *Process) deferRefire(c weakCell) {
	p.pending = append(p.pending, pendingPlant{refire: true, cell: c})
	p.m.Kern.Defer(p.runPending)
}

// runNext runs the oldest queued plant or re-fire.
func (p *Process) runNext() {
	e := p.pending[p.head]
	p.head++
	if p.head == len(p.pending) {
		p.pending, p.head = p.pending[:0], 0
	}
	if p.stopped {
		return
	}
	if e.refire {
		p.refire(e.cell)
		return
	}
	if !p.in.PlantSpecific(e.va, e.double, e.b1, e.b2) {
		p.stats.Skipped++
		return
	}
	dbl := uint64(0)
	if e.double {
		dbl = 1
	}
	flight.Emit(flight.KindFaultPlant, "faultmodel", p.m.Clock.Now(), "fault planted",
		flight.F("addr", uint64(e.va)), flight.F("bit", uint64(e.b1)), flight.F("double", dbl))
}

// refire re-asserts a weak/stuck cell. A stuck cell only plants when the
// stored bit disagrees with the held value — a write-back may have
// "repaired" it, which is exactly when the cell strikes again.
func (p *Process) refire(c weakCell) {
	if c.stuck {
		cur, resident := p.in.DataBit(c.va, c.bit)
		if !resident || cur == c.stuckVal {
			return
		}
	}
	if p.in.PlantSpecific(c.va, false, c.bit, 0) {
		p.stats.Refires++
	} else {
		p.stats.Skipped++
	}
}

// site picks a fault address from the configured targets.
func (p *Process) site() (vm.VAddr, bool) {
	if len(p.cfg.Targets) == 0 {
		return 0, false
	}
	t := p.cfg.Targets[p.r.intn(len(p.cfg.Targets))]
	if t.Size == 0 {
		return 0, false
	}
	return t.Base + vm.VAddr(p.r.next()%t.Size), true
}
