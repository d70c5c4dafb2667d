// Machine-level snapshot/restore: the machine's one reset mechanism.
// Snapshot captures every component's state through its CaptureImage;
// Restore puts the SAME machine back into that state in O(state dirtied
// since), firing the exact mutation hooks an explicit rebuild would, so the
// controller's known-clean bitmap, the cache epochs and the batch lane can
// never go stale. Recycle is Restore of the pristine snapshot New takes.
//
// A Snapshot is bound to its machine: timers, fault observers, ECC handlers
// and scrub hooks captured in the component images are closures over the
// objects (kernel, tools, heap) that live alongside this machine, so
// restoring into a different machine would re-arm someone else's callbacks.
package machine

import (
	"safemem/internal/cache"
	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// Snapshot is an immutable checkpoint of a Machine, taken with
// Machine.Snapshot and consumed by Machine.Restore.
type Snapshot struct {
	m     *Machine
	clock *simtime.ClockImage
	phys  physmem.Image
	ctrl  *memctrl.Image
	cache *cache.Image
	as    *vm.Image
	kern  *kernel.Image

	nmonitors  int
	tracer     Tracer
	stats      Stats
	instrs     uint64
	stack      []uint64
	sourceMark int
}

// Snapshot checkpoints the machine's complete simulated state. Intended
// capture point: an idle machine — no program ops executed — where every
// component image is near-empty and both capture and restore stay cheap. Per-run state (fault injectors, fault
// models, scrub daemons, samplers) must not be live; the kernel image
// capture enforces the scrub-daemon half of that.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		m:          m,
		clock:      m.Clock.CaptureImage(),
		phys:       m.Phys.CaptureImage(),
		ctrl:       m.Ctrl.CaptureImage(),
		cache:      m.Cache.CaptureImage(),
		as:         m.AS.CaptureImage(),
		kern:       m.Kern.CaptureImage(),
		nmonitors:  len(m.monitors),
		tracer:     m.tracer,
		stats:      m.stats,
		instrs:     m.instrs,
		stack:      m.Stack.Snapshot(),
		sourceMark: m.Telemetry.SourceMark(),
	}
}

// Restore puts the machine back into the snapshot's state. Component restore
// order is load-bearing: the clock first (its timer truncation kills per-run
// timers, which the kernel restore relies on), then DRAM (each restored line
// fires the mutate hook into the still-to-be-restored controller, which is
// harmless — the clean bitmap is not part of the controller image), then the
// controller (mode, handlers, observer truncation, scrub filter), cache,
// address space, and finally the kernel.
//
// Telemetry sources registered after the snapshot (per-run injectors and
// fault models) are truncated away; the registry itself — and everything
// registered at or before capture — survives, so repeated restores cannot
// accumulate duplicate emitters. Monitors attached after capture are
// likewise dropped.
func (m *Machine) Restore(s *Snapshot) {
	if s.m != m {
		panic("machine: Restore with a snapshot captured from a different machine")
	}
	m.Clock.RestoreImage(s.clock)
	m.Phys.RestoreImage(&s.phys)
	m.Ctrl.RestoreImage(s.ctrl)
	m.Cache.RestoreImage(s.cache)
	m.AS.RestoreImage(s.as)
	m.Kern.RestoreImage(s.kern)
	m.monitors = m.monitors[:s.nmonitors]
	m.tracer = s.tracer
	m.stats = s.stats
	m.instrs = s.instrs
	m.Stack.Restore(s.stack)
	// The batch lane's open windows hold line and page references that the
	// component restores just invalidated (both epochs moved); drop them and
	// the host-side counters.
	m.batch = batchLane{}
	m.Telemetry.TruncateSources(s.sourceMark)
}
