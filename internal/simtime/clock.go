// Package simtime provides the virtual CPU clock used by the simulated
// machine, together with the cost-model constants that calibrate the
// simulation to the paper's platform (a 2.4 GHz Pentium 4 with an Intel
// E7500 ECC chipset).
//
// Every component of the simulator charges cycles to a Clock instead of
// reading wall-clock time, so experiments are fully deterministic and the
// "CPU time of the monitored program" notion used by the paper's leak
// detector (Section 3) is exact: idle periods between simulated client
// requests simply never advance the clock.
package simtime

import (
	"fmt"
	"slices"
)

// CyclesPerMicrosecond is the clock rate of the simulated CPU: 2.4 GHz,
// matching the paper's evaluation platform (Section 5.1).
const CyclesPerMicrosecond = 2400

// Cycles counts simulated CPU cycles. It is the only unit of time in the
// simulator; conversions to nanoseconds or microseconds are for display.
type Cycles uint64

// Microseconds converts a cycle count to microseconds on the simulated
// 2.4 GHz machine.
func (c Cycles) Microseconds() float64 {
	return float64(c) / CyclesPerMicrosecond
}

// Seconds converts a cycle count to seconds on the simulated machine.
func (c Cycles) Seconds() float64 {
	return float64(c) / (CyclesPerMicrosecond * 1e6)
}

// String renders the count in a human-friendly unit.
func (c Cycles) String() string {
	switch {
	case c >= CyclesPerMicrosecond*1e6:
		return fmt.Sprintf("%.3fs", c.Seconds())
	case c >= CyclesPerMicrosecond*1000:
		return fmt.Sprintf("%.3fms", c.Microseconds()/1000)
	case c >= CyclesPerMicrosecond:
		return fmt.Sprintf("%.3fµs", c.Microseconds())
	default:
		return fmt.Sprintf("%dcy", uint64(c))
	}
}

// FromMicroseconds converts a duration in microseconds to cycles.
func FromMicroseconds(us float64) Cycles {
	return Cycles(us * CyclesPerMicrosecond)
}

// Cost-model constants. These calibrate the simulator; they are shared by
// every tool under test so overheads are comparable. See DESIGN.md §6.
const (
	// CostInstr is the charge for one ordinary ALU instruction.
	CostInstr Cycles = 1

	// CostCacheHit is a load/store that hits in the CPU cache.
	CostCacheHit Cycles = 3

	// CostCacheMiss is a load that must fetch a line from DRAM.
	CostCacheMiss Cycles = 240

	// CostWriteBack is the charge for writing a dirty line back to DRAM.
	CostWriteBack Cycles = 120

	// CostLineFlush is an explicit clflush of one line (used by WatchMemory).
	CostLineFlush Cycles = 180

	// CostSyscall is the fixed entry/exit cost of any system call
	// (trap, register save/restore, kernel dispatch).
	CostSyscall Cycles = 1400

	// CostBusLock / CostBusUnlock charge for locking the memory bus during
	// the disable-ECC scramble window (Section 2.2.2, Figure 2). Locking
	// quiesces all other bus agents (other processors, DMA), which is slow.
	CostBusLock   Cycles = 800
	CostBusUnlock Cycles = 500

	// CostECCModeSwitch is the chipset configuration-register write that
	// disables or enables the ECC engine; PCI config-space accesses are
	// slow on real chipsets.
	CostECCModeSwitch Cycles = 700

	// CostScrambleWord covers scrambling (or restoring) one 64-bit ECC
	// group, including saving the original data to SafeMem's private area.
	CostScrambleWord Cycles = 40

	// CostPageTableOp is one page-table walk/update (protection change,
	// pin/unpin) inside the kernel.
	CostPageTableOp Cycles = 180

	// CostDirectECCWrite is one check-bit register write on a controller
	// implementing the paper's proposed software-friendly ECC interface
	// (Section 2.2.3): no bus lock or mode switch needed.
	CostDirectECCWrite Cycles = 20

	// CostTLBFlush is the TLB shootdown performed after a protection
	// change (mprotect).
	CostTLBFlush Cycles = 850

	// CostInterrupt is the delivery of an ECC machine-check interrupt from
	// controller to kernel to user-level handler.
	CostInterrupt Cycles = 2200

	// CostPageFault is the delivery of a page-protection fault.
	CostPageFault Cycles = 1800
)

// Clock is the virtual CPU clock. The zero value is a clock at time zero,
// ready to use. Clock is not safe for concurrent use; the simulated machine
// is single-threaded, like the paper's monitored programs.
//
// Periodic background work (the telemetry sampler, the kernel's scrub
// daemon, the DRAM fault process) registers Timers. The Advance hot path
// stays a single compare-and-branch: wakeAt caches a lower bound on the
// earliest deadline over all active timers (see noteDeadline).
type Clock struct {
	now    Cycles
	wakeAt Cycles
	armed  bool
	timers []*Timer
	legacy *Timer
	firing bool
}

// Timer is one wake hook registered on the clock. Timers fire in
// registration order when several share a deadline, which keeps multi-hook
// runs deterministic. A stopped Timer stays registered and can be re-armed
// with Reprogram.
type Timer struct {
	c      *Clock
	at     Cycles
	fn     func(now Cycles) Cycles
	active bool
}

// Now returns the current simulated time.
func (c *Clock) Now() Cycles { return c.now }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n Cycles) {
	c.now += n
	if c.armed && c.now >= c.wakeAt && !c.firing {
		c.fireWake()
	}
}

// AdvanceInstr charges n ordinary instructions.
func (c *Clock) AdvanceInstr(n uint64) { c.Advance(Cycles(n) * CostInstr) }

// Headroom reports how many cycles the clock can advance while provably not
// reaching the next wake deadline, and whether such a bound exists (bounded
// is false when no timer is armed, in which case the headroom is infinite
// and the returned count is meaningless). The batched access fast lane uses
// it to clamp run lengths: a single Advance(n) with n ≤ headroom fires
// nothing, so batching n per-access charges into one call is
// indistinguishable from n singles. The bound is conservative — wakeAt may
// be a stale *lower* bound on the earliest active deadline (see
// noteDeadline) — so clamping against it can only shorten batches, never
// let a wake fire mid-batch.
func (c *Clock) Headroom() (Cycles, bool) {
	if !c.armed {
		return 0, false
	}
	if c.wakeAt <= c.now {
		return 0, true
	}
	// Advancing by wakeAt-now-1 leaves now strictly before wakeAt.
	return c.wakeAt - c.now - 1, true
}

// Reset rewinds the clock to zero. Used between benchmark repetitions.
// Timers stay installed with their deadlines unchanged, so periodic work
// resumes once the clock catches back up.
func (c *Clock) Reset() { c.now = 0 }

// NewTimer registers fn to run the first time the clock reaches or passes
// at. A deadline crossed mid-Advance fires once, late, at the post-Advance
// time (missed periods do not replay). fn returns the next wake time;
// returning a time not after the current time stops the timer. Unlike the
// legacy single-slot hook, a timer's fn may itself advance the clock (e.g.
// a scrub daemon charging scrub cycles): re-entry is suppressed while hooks
// run, and any deadlines crossed inside a hook fire before control returns
// to the program.
func (c *Clock) NewTimer(at Cycles, fn func(now Cycles) Cycles) *Timer {
	return c.Rearm(nil, at, fn)
}

// Rearm arms t again for at with fn, and returns it: the timer of a
// per-run component whose earlier run ended with the clock restored
// (RestoreImage drops every timer registered after the capture) goes back
// on the end of the timer list, exactly where NewTimer would put a new
// one. A nil t, or one still registered, gets a new timer instead, so a
// component can keep its timer across machine recycles without the
// allocation and without changing the order timers fire in.
func (c *Clock) Rearm(t *Timer, at Cycles, fn func(now Cycles) Cycles) *Timer {
	if t == nil || t.c != c || slices.Contains(c.timers, t) {
		t = new(Timer)
	}
	*t = Timer{c: c, at: at, fn: fn, active: true}
	c.timers = append(c.timers, t)
	c.noteDeadline(at)
	return t
}

// Stop deactivates the timer. It stays registered; Reprogram re-arms it.
//
// Stop is O(1): wakeAt is left alone and becomes a stale lower bound on
// the earliest active deadline. The worst case is one spurious fireWake
// sweep that fires nothing and then rearms precisely; observable firing
// times are unchanged.
func (t *Timer) Stop() {
	t.active = false
}

// Reprogram re-arms the timer (stopped or not) with a new deadline.
// O(1): moving a deadline later leaves wakeAt as a stale lower bound
// (corrected by the next sweep's rearm), moving it earlier lowers wakeAt.
func (t *Timer) Reprogram(at Cycles) {
	t.at = at
	t.active = true
	t.c.noteDeadline(at)
}

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.active }

// Deadline returns the timer's next fire time (meaningful while Active).
func (t *Timer) Deadline() Cycles { return t.at }

// SetWake installs fn on the clock's dedicated legacy slot: the
// single-hook API that predates Timers. ClearWake clears only this slot,
// so a component using SetWake/ClearWake (the telemetry sampler) cannot
// disturb timers owned by others. Semantics per NewTimer.
func (c *Clock) SetWake(at Cycles, fn func(now Cycles) Cycles) {
	if c.legacy == nil {
		c.legacy = c.NewTimer(at, fn)
		return
	}
	c.legacy.fn = fn
	c.legacy.Reprogram(at)
}

// ClearWake uninstalls the legacy wake hook. Timers are unaffected.
func (c *Clock) ClearWake() {
	if c.legacy != nil {
		c.legacy.Stop()
	}
}

// timerState is one timer's captured deadline and armed flag.
type timerState struct {
	t      *Timer
	at     Cycles
	active bool
}

// ClockImage is a checkpoint of a clock: the current time plus the deadline
// and armed state of every timer registered at capture time. Timers keep
// their hook closures — an image restores into the same host objects it was
// captured from, which machine.Snapshot's binding to its machine
// guarantees.
type ClockImage struct {
	clock  *Clock
	now    Cycles
	wakeAt Cycles
	armed  bool
	legacy *Timer
	timers []timerState
}

// CaptureImage checkpoints the clock. Capturing mid-sweep (from inside a
// timer hook) is a bug and panics.
func (c *Clock) CaptureImage() *ClockImage {
	if c.firing {
		panic("simtime: CaptureImage from inside a timer hook")
	}
	img := &ClockImage{
		clock:  c,
		now:    c.now,
		wakeAt: c.wakeAt,
		armed:  c.armed,
		legacy: c.legacy,
		timers: make([]timerState, len(c.timers)),
	}
	for i, t := range c.timers {
		img.timers[i] = timerState{t: t, at: t.at, active: t.active}
	}
	return img
}

// RestoreImage puts the clock back into the captured state. Timers
// registered after the capture are dropped — they belong to per-run
// components (fault processes, scrub daemons) that are rebuilt per run —
// while the captured prefix gets its deadlines and armed flags back.
func (c *Clock) RestoreImage(img *ClockImage) {
	if img.clock != c {
		panic("simtime: RestoreImage with an image captured from a different clock")
	}
	for i := range img.timers {
		s := &img.timers[i]
		if c.timers[i] != s.t {
			panic("simtime: clock timer list diverged from image prefix")
		}
		s.t.at = s.at
		s.t.active = s.active
	}
	c.timers = c.timers[:len(img.timers)]
	c.now = img.now
	c.wakeAt = img.wakeAt
	c.armed = img.armed
	c.legacy = img.legacy
	c.firing = false
}

// noteDeadline lowers the cached wake bound to cover a new deadline.
// wakeAt is maintained as a lower bound on the earliest active deadline
// (never an exact minimum): Stop and later Reprograms leave it stale, and
// the exact recompute happens only in rearm at the end of a sweep.
func (c *Clock) noteDeadline(at Cycles) {
	if !c.armed || at < c.wakeAt {
		c.wakeAt = at
		c.armed = true
	}
}

// rearm recomputes the cached earliest deadline exactly.
func (c *Clock) rearm() {
	c.armed = false
	for _, t := range c.timers {
		if t.active && (!c.armed || t.at < c.wakeAt) {
			c.wakeAt = t.at
			c.armed = true
		}
	}
}

// fireWake runs every due timer until none remain due. A hook that
// advances the clock may make further timers due; they fire on the next
// sweep, still inside this call, so the program never observes a missed
// deadline.
func (c *Clock) fireWake() {
	c.firing = true
	for {
		fired := false
		// Index loop: a hook may register new timers, growing the slice.
		for i := 0; i < len(c.timers); i++ {
			t := c.timers[i]
			if !t.active || c.now < t.at {
				continue
			}
			fired = true
			next := t.fn(c.now)
			if next <= c.now {
				t.active = false
			} else {
				t.at = next
			}
		}
		if !fired {
			break
		}
	}
	c.firing = false
	c.rearm()
}
