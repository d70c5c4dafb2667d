// Background scrub daemon: incremental, watch-aware DRAM scrubbing driven
// by a clock timer. CoordinatedScrub (Section 2.2.2) is a stop-the-world
// full pass — correct but far too expensive to run often (a 32 MiB machine
// is ~half a million lines). The daemon instead scrubs a small chunk per
// step and skips watched lines entirely via the controller's scrub filter:
// watched lines self-verify (every touch faults, and the unwatch path
// detects corrupted scrambles from the signature mismatch), so scrubbing
// them would only raise spurious faults.
//
// The step interval adapts to error pressure: a burst of ECC events since
// the last step (an error storm) halves the interval down to MinInterval —
// scrub harder while latent single-bit errors are piling up, before they
// pair into uncorrectable ones — and quiet periods double it back up to
// MaxInterval.
//
// The timer hook only marks a step due; the actual scrubbing runs at the
// next deferred-work point, where no memory access is in flight.

package kernel

import (
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// ScrubDaemonOptions configures the background scrub daemon.
type ScrubDaemonOptions struct {
	// Interval is the initial gap between scrub steps.
	Interval simtime.Cycles
	// MinInterval / MaxInterval bound the adaptive interval.
	MinInterval simtime.Cycles
	MaxInterval simtime.Cycles
	// Chunk is how many lines one step visits.
	Chunk int
	// StormEvents is the number of ECC error events since the previous
	// step that counts as a storm (interval halves).
	StormEvents uint64
}

// DefaultScrubDaemonOptions returns the defaults: 64-line chunks roughly
// every 50k cycles, adapting between 10k (storm) and 400k (quiet).
func DefaultScrubDaemonOptions() ScrubDaemonOptions {
	return ScrubDaemonOptions{
		Interval:    50_000,
		MinInterval: 10_000,
		MaxInterval: 400_000,
		Chunk:       64,
		StormEvents: 4,
	}
}

// scrubDaemon is the kernel's background scrubber state.
type scrubDaemon struct {
	opts       ScrubDaemonOptions
	interval   simtime.Cycles
	timer      *simtime.Timer
	fire       func(now simtime.Cycles) simtime.Cycles // the timer's callback, bound once
	due        bool
	lastEvents uint64 // controller error-event total at the last step
	debt       int    // bus-locked lines to revisit on the next step
}

// StartScrubDaemon starts (or restarts) the background scrub daemon.
// Zero-valued option fields take their defaults. The controller is switched
// to Correct-and-Scrub mode and given a filter that keeps the scrubber off
// watched lines.
func (k *Kernel) StartScrubDaemon(opts ScrubDaemonOptions) {
	if k.scrubd != nil {
		k.StopScrubDaemon()
	}
	d := DefaultScrubDaemonOptions()
	if opts.Interval <= 0 {
		opts.Interval = d.Interval
	}
	if opts.MinInterval <= 0 {
		opts.MinInterval = d.MinInterval
	}
	if opts.MaxInterval <= 0 {
		opts.MaxInterval = d.MaxInterval
	}
	if opts.Chunk <= 0 {
		opts.Chunk = d.Chunk
	}
	if opts.StormEvents == 0 {
		opts.StormEvents = d.StormEvents
	}
	if opts.MinInterval > opts.Interval {
		opts.MinInterval = opts.Interval
	}
	if opts.MaxInterval < opts.Interval {
		opts.MaxInterval = opts.Interval
	}
	if k.ctrl.Mode() != memctrl.CorrectAndScrub {
		k.ctrl.SetMode(memctrl.CorrectAndScrub)
	}
	if k.scrubFilter == nil {
		k.scrubFilter = func(line physmem.Addr) bool { return !k.watchedPhys(line) }
	}
	k.ctrl.SetScrubFilter(k.scrubFilter)
	sd := k.scrubSpare
	if sd == nil {
		sd = &scrubDaemon{}
		sd.fire = func(now simtime.Cycles) simtime.Cycles {
			sd.due = true
			return now + sd.interval
		}
	}
	*sd = scrubDaemon{opts: opts, interval: opts.Interval, lastEvents: k.errorEvents(), timer: sd.timer, fire: sd.fire}
	sd.timer = k.clock.Rearm(sd.timer, k.clock.Now()+sd.interval, sd.fire)
	k.scrubd, k.scrubSpare = sd, sd
}

// StopScrubDaemon stops the daemon and removes the scrub filter. The
// controller stays in Correct-and-Scrub mode (CoordinatedScrub still works).
func (k *Kernel) StopScrubDaemon() {
	if k.scrubd == nil {
		return
	}
	k.scrubd.timer.Stop()
	k.ctrl.SetScrubFilter(nil)
	k.scrubd = nil
}

// ScrubDaemonInterval returns the daemon's current adaptive interval, or 0
// when the daemon is not running.
func (k *Kernel) ScrubDaemonInterval() simtime.Cycles {
	if k.scrubd == nil {
		return 0
	}
	return k.scrubd.interval
}

// errorEvents totals the controller's ECC error events (corrected plus
// uncorrectable) — the pressure signal the daemon adapts to.
func (k *Kernel) errorEvents() uint64 {
	s := k.ctrl.Stats()
	return s.CorrectedSingle + s.Uncorrectable
}

// scrubDaemonStep runs one due scrub chunk at a deferred-work point and
// adapts the interval to the observed error pressure.
func (k *Kernel) scrubDaemonStep() {
	sd := k.scrubd
	if sd == nil || !sd.due {
		return
	}
	sd.due = false
	// Adapt before scrubbing: the delta covers everything since the last
	// step, including latent errors the previous chunk itself uncovered —
	// a storm found by scrubbing is still a storm.
	events := k.errorEvents()
	delta := events - sd.lastEvents
	sd.lastEvents = events
	switch {
	case delta >= sd.opts.StormEvents:
		sd.interval /= 2
		if sd.interval < sd.opts.MinInterval {
			sd.interval = sd.opts.MinInterval
		}
	case delta == 0:
		sd.interval *= 2
		if sd.interval > sd.opts.MaxInterval {
			sd.interval = sd.opts.MaxInterval
		}
	}
	sp := k.tr.Begin("kernel", "scrub-daemon-step", telemetry.KV("chunk", uint64(sd.opts.Chunk+sd.debt)))
	defer sp.End()
	want := sd.opts.Chunk + sd.debt
	scrubbed, skipped := k.ctrl.ScrubStep(want)
	// Lines skipped with nothing scrubbed mean the bus was locked for the
	// whole step; carry them as debt so the next step covers the gap.
	// Filter skips (watched lines) are deliberate and are not retried.
	if scrubbed == 0 && skipped == want {
		if sd.debt < want {
			sd.debt = want
		}
	} else {
		sd.debt = 0
	}
	k.resStats.ScrubDaemonSteps++
	// Schedule the next step relative to NOW — after the scrub's own cycle
	// charges and with the freshly adapted interval. Without this, a chunk
	// that costs more than the interval would re-fire the timer mid-drain
	// and the daemon would scrub back-to-back forever.
	sd.due = false
	sd.timer.Reprogram(k.clock.Now() + sd.interval)
}
