// Package memctrl models a commodity ECC memory controller (the paper's
// Intel E7500 chipset, Section 2.1): it sits between the CPU cache and DRAM,
// generates check bits on every write, verifies them on every read, corrects
// single-bit errors transparently, and reports multi-bit errors to the
// processor with an interrupt (Figure 1).
//
// Like real off-the-shelf controllers — and unlike the research parts used
// by fine-grained DSM systems — it exposes only a narrow software interface:
// software can switch the ECC mode, lock the bus, and enable scrubbing, but
// it can never read or write the stored check bits directly. SafeMem's
// scramble trick (write data with ECC disabled) exists precisely because of
// this restriction.
package memctrl

import (
	"fmt"

	"safemem/internal/ecc"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// Mode selects the controller's ECC behaviour (Section 2.1).
type Mode int

const (
	// Disabled turns off all ECC functionality: reads return raw data and
	// writes do not update the stored check bits.
	Disabled Mode = iota
	// CheckOnly detects and reports single- and multi-bit errors but does
	// not correct them.
	CheckOnly
	// CorrectError detects both and corrects single-bit errors on the fly.
	CorrectError
	// CorrectAndScrub additionally scans memory periodically to find and
	// repair latent errors.
	CorrectAndScrub
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Disabled:
		return "Disabled"
	case CheckOnly:
		return "Check-Only"
	case CorrectError:
		return "Correct-Error"
	case CorrectAndScrub:
		return "Correct-and-Scrub"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FaultReport describes an uncorrectable ECC error delivered to the
// processor. The report identifies the faulting ECC group and the raw bits
// observed; software (SafeMem's handler) decides whether this is a watched-
// location access fault or a genuine hardware error.
type FaultReport struct {
	// Group is the physical address of the faulting ECC group.
	Group physmem.Addr
	// Line is the physical address of the containing cache line.
	Line physmem.Addr
	// Data and Check are the raw bits read from DRAM.
	Data  uint64
	Check uint8
	// DuringScrub is true when the error was found by the scrubber rather
	// than by a demand read.
	DuringScrub bool
}

// InterruptHandler receives uncorrectable-error interrupts. The handler may
// repair the faulting group (e.g. SafeMem restoring original data); the
// controller re-reads the group after the handler returns.
type InterruptHandler func(FaultReport)

// FaultObserver is notified of every ECC error event the controller sees —
// corrected single-bit errors and uncorrectable reports alike — with the
// group's physical address. The fault injector uses it to measure detection
// latency (cycles from planting a fault to the controller noticing it).
// Observers are measurement probes: they charge no cycles.
type FaultObserver func(group physmem.Addr, uncorrectable bool)

// Stats counts controller activity.
type Stats struct {
	LineReads       uint64
	LineWrites      uint64
	CorrectedSingle uint64 // single-bit errors corrected (or reported in CheckOnly)
	Uncorrectable   uint64 // multi-bit errors reported
	ScrubbedLines   uint64
	ScrubCorrected  uint64
	ScrubSkipped    uint64 // scrub lines deferred because the bus was locked
}

// Capabilities describes optional controller features beyond the narrow
// commodity interface. DirectECCAccess is the generalised interface the
// paper proposes in Section 2.2.3: the OS may read and write the stored
// check bits of any group directly, so watchpoints need no bus lock,
// no ECC-disable window and no data scrambling.
type Capabilities struct {
	DirectECCAccess bool
}

// Controller is the simulated ECC memory controller.
type Controller struct {
	mem       *physmem.Memory
	clock     *simtime.Clock
	mode      Mode
	handler   InterruptHandler
	observer  FaultObserver
	observers []FaultObserver
	locked    bool
	caps      Capabilities
	stats     Stats

	tr      *telemetry.Tracer
	busSpan telemetry.Span

	// clean is the known-clean line bitmap, one bit per 64-byte line: a set
	// bit asserts that every ECC group of the line decodes ecc.OK against
	// its stored check bits, so ReadLine may return the raw words without
	// running 8 decodes. Bits are set only after the controller itself
	// verified or freshly encoded the whole line, and cleared by the physmem
	// mutation hook on *any* stored-bit write — including the fault
	// injector, the DRAM fault model, VM swap traffic and direct-ECC pokes —
	// so a planted fault can never hide behind the fast path.
	clean []uint64
	// fastPath gates the bitmap; SetFastPath(false) restores the literal
	// decode-everything read path (reference machines, differential tests).
	fastPath bool
	// fastLineReads counts ReadLine calls served by the bitmap. Diagnostic
	// only: deliberately outside Stats so run results and JSON summaries
	// stay byte-identical to the pre-fast-path simulator.
	fastLineReads uint64

	// scrubCursor is the next line the incremental scrubber will visit.
	scrubCursor physmem.Addr
	// scrubFilter, when set, is consulted per line during scrub steps; lines
	// it rejects are skipped (and counted) instead of read through ECC. The
	// kernel uses it to keep the background scrub daemon off watched lines.
	scrubFilter func(line physmem.Addr) bool
}

// New creates a controller over mem, charging costs to clock. The initial
// mode is CorrectError, the common server default.
func New(mem *physmem.Memory, clock *simtime.Clock) *Controller {
	c := &Controller{
		mem:      mem,
		clock:    clock,
		mode:     CorrectError,
		clean:    make([]uint64, (mem.Lines()+63)/64),
		fastPath: true,
	}
	mem.SetMutateHook(c.invalidateClean)
	return c
}

// lineIndex converts a line address to its bitmap index.
func lineIndex(line physmem.Addr) uint64 { return uint64(line) / physmem.LineBytes }

// invalidateClean drops the known-clean bit of a line; it is the physmem
// mutation hook, fired on every stored-bit write from any component.
func (c *Controller) invalidateClean(line physmem.Addr) {
	idx := lineIndex(line)
	c.clean[idx/64] &^= 1 << (idx % 64)
}

// markClean records that every group of line currently decodes ecc.OK.
func (c *Controller) markClean(line physmem.Addr) {
	idx := lineIndex(line)
	c.clean[idx/64] |= 1 << (idx % 64)
}

// lineClean reports whether the line holds the known-clean bit. Addresses
// outside DRAM report false, so the slow path raises physmem's usual
// out-of-range panic.
func (c *Controller) lineClean(line physmem.Addr) bool {
	idx := lineIndex(line)
	return idx/64 < uint64(len(c.clean)) && c.clean[idx/64]&(1<<(idx%64)) != 0
}

// SetFastPath enables or disables the known-clean ReadLine fast path. It is
// on by default; turning it off forces every read through the full decode
// loop. Stats, cycle charges and returned data are identical either way —
// pinned by TestFastPathEquivalence. It is a construction-time switch: set
// it before the first access, and before any CaptureImage, which does not
// record it. machine.New is its only non-test caller (Config.Reference).
func (c *Controller) SetFastPath(enabled bool) { c.fastPath = enabled }

// FastLineReads returns the number of ReadLine calls that skipped decoding
// via the known-clean bitmap (diagnostic; not part of Stats).
func (c *Controller) FastLineReads() uint64 { return c.fastLineReads }

// Memory returns the underlying DRAM (used by the fault injector in tests).
func (c *Controller) Memory() *physmem.Memory { return c.mem }

// Capabilities returns the controller's optional feature set.
func (c *Controller) Capabilities() Capabilities { return c.caps }

// EnableDirectECCAccess turns on the Section 2.2.3 generalised interface.
// Real E7500-class chipsets do not have it; the simulator offers it so the
// paper's proposed hardware extension can be evaluated (see
// BenchmarkExtensionDirectECC).
func (c *Controller) EnableDirectECCAccess() { c.caps.DirectECCAccess = true }

// ReadCheckBits returns the stored check bits of the ECC group at a.
// Requires DirectECCAccess.
func (c *Controller) ReadCheckBits(a physmem.Addr) uint8 {
	if !c.caps.DirectECCAccess {
		panic("memctrl: ReadCheckBits without DirectECCAccess capability")
	}
	c.clock.Advance(simtime.CostDirectECCWrite)
	_, check := c.mem.ReadGroupRaw(a.GroupAddr())
	return check
}

// WriteCheckBits overwrites the stored check bits of the ECC group at a,
// leaving the data untouched. Requires DirectECCAccess. This is the
// one-register-write watchpoint arm/disarm of the paper's proposed
// interface.
func (c *Controller) WriteCheckBits(a physmem.Addr, check uint8) {
	if !c.caps.DirectECCAccess {
		panic("memctrl: WriteCheckBits without DirectECCAccess capability")
	}
	c.clock.Advance(simtime.CostDirectECCWrite)
	data, _ := c.mem.ReadGroupRaw(a.GroupAddr())
	c.mem.WriteGroupRaw(a.GroupAddr(), data, check)
}

// Mode returns the current ECC mode.
func (c *Controller) Mode() Mode { return c.mode }

// SetMode switches the ECC mode, charging the chipset register-write cost.
func (c *Controller) SetMode(m Mode) {
	c.clock.Advance(simtime.CostECCModeSwitch)
	c.mode = m
}

// SetInterruptHandler installs the processor's ECC machine-check handler
// (in the simulator, the kernel's entry point).
func (c *Controller) SetInterruptHandler(h InterruptHandler) { c.handler = h }

// SetFaultObserver installs a measurement probe notified on every ECC error
// event (see FaultObserver). There is one such slot; setting it again
// replaces the previous probe. Components that must coexist with it (the
// kernel's per-line health tracker) use AddFaultObserver instead.
func (c *Controller) SetFaultObserver(fn FaultObserver) { c.observer = fn }

// AddFaultObserver appends an additional fault observer. Observers run in
// registration order, after the SetFaultObserver slot.
func (c *Controller) AddFaultObserver(fn FaultObserver) {
	c.observers = append(c.observers, fn)
}

// SetScrubFilter installs a per-line predicate for background scrub steps:
// lines for which fn returns false are skipped rather than read through the
// ECC path. Pass nil to clear. The kernel's scrub daemon uses this to avoid
// tripping watched (deliberately scrambled) lines — those self-verify via
// signature checks, so skipping them loses no coverage.
func (c *Controller) SetScrubFilter(fn func(line physmem.Addr) bool) {
	c.scrubFilter = fn
}

// notifyObservers fans an ECC event out to every registered probe.
func (c *Controller) notifyObservers(group physmem.Addr, uncorrectable bool) {
	if c.observer != nil {
		c.observer(group, uncorrectable)
	}
	for _, fn := range c.observers {
		fn(group, uncorrectable)
	}
}

// RegisterTelemetry registers the controller's counters with the registry
// and adopts its tracer for bus-lock, scrub and fault-delivery spans.
func (c *Controller) RegisterTelemetry(reg *telemetry.Registry) {
	c.tr = reg.Tracer()
	reg.RegisterSource("memctrl", func(emit func(string, float64)) {
		s := c.stats
		emit("line_reads", float64(s.LineReads))
		emit("line_writes", float64(s.LineWrites))
		emit("corrected_single", float64(s.CorrectedSingle))
		emit("uncorrectable", float64(s.Uncorrectable))
		emit("scrubbed_lines", float64(s.ScrubbedLines))
		emit("scrub_corrected", float64(s.ScrubCorrected))
		emit("scrub_skipped", float64(s.ScrubSkipped))
	})
}

// LockBus locks the memory bus. While locked, background traffic (the
// scrubber — the simulator's stand-in for other processors and DMA) is
// blocked. WatchMemory holds the lock across its disable-scramble-enable
// window (Section 2.2.2).
func (c *Controller) LockBus() {
	if c.locked {
		panic("memctrl: bus already locked")
	}
	c.busSpan = c.tr.Begin("memctrl", "bus-locked")
	c.clock.Advance(simtime.CostBusLock)
	c.locked = true
}

// UnlockBus releases the memory bus.
func (c *Controller) UnlockBus() {
	if !c.locked {
		panic("memctrl: bus not locked")
	}
	c.clock.Advance(simtime.CostBusUnlock)
	c.locked = false
	c.busSpan.End()
	c.busSpan = telemetry.Span{}
}

// BusLocked reports whether the bus is currently locked.
func (c *Controller) BusLocked() bool { return c.locked }

// Stats returns a copy of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Controller) ResetStats() { c.stats = Stats{} }

// readGroup performs the ECC read path (Figure 1b) for one group and
// returns the (possibly corrected) data.
func (c *Controller) readGroup(a physmem.Addr, duringScrub bool) uint64 {
	data, check := c.mem.ReadGroupRaw(a)
	if c.mode == Disabled {
		return data
	}
	corrected, correctedCheck, res := ecc.Decode(data, ecc.Check(check))
	switch res {
	case ecc.OK:
		return data
	case ecc.CorrectedData, ecc.CorrectedCheck:
		c.stats.CorrectedSingle++
		if duringScrub {
			c.stats.ScrubCorrected++
		}
		c.notifyObservers(a, false)
		if c.mode == CheckOnly {
			// Detected and reported, but not corrected in memory.
			return data
		}
		c.mem.WriteGroupRaw(a, corrected, uint8(correctedCheck))
		return corrected
	case ecc.Uncorrectable:
		c.stats.Uncorrectable++
		c.notifyObservers(a, true)
		report := FaultReport{
			Group:       a,
			Line:        a.LineAddr(),
			Data:        data,
			Check:       check,
			DuringScrub: duringScrub,
		}
		if c.handler != nil {
			sp := c.tr.Begin("memctrl", "ecc-fault", telemetry.KV("group", uint64(a)))
			c.clock.Advance(simtime.CostInterrupt)
			c.handler(report)
			sp.End()
			// The handler may have repaired the group (SafeMem restores the
			// original data and check bits). Re-read once; if still broken,
			// hand back the raw bits — the kernel has already decided what
			// to do (typically panic).
			data2, check2 := c.mem.ReadGroupRaw(a)
			if d, _, res2 := ecc.Decode(data2, ecc.Check(check2)); res2 != ecc.Uncorrectable {
				if res2 == ecc.CorrectedData {
					return d
				}
				return data2
			}
		}
		return data
	}
	return data
}

// ReadLine fetches the 64-byte line at a (which must be line-aligned) from
// DRAM, running every ECC group through the check/correct path. Lines the
// controller knows to be clean — written by itself with ECC enabled, or
// fully verified on an earlier pass, with no stored-bit mutation since —
// skip the 8 decodes entirely: for such a line every decode returns ecc.OK
// with the data unchanged and no stats or cycle charges, so the fast path
// is observationally identical to the full loop (TestFastPathEquivalence).
func (c *Controller) ReadLine(a physmem.Addr) [physmem.GroupsPerLine]uint64 {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("memctrl: ReadLine at unaligned address %#x", uint64(a)))
	}
	c.stats.LineReads++
	var out [physmem.GroupsPerLine]uint64
	if c.fastPath && c.mode != Disabled && c.lineClean(a) {
		c.fastLineReads++
		return c.mem.ReadLineData(a)
	}
	errsBefore := c.stats.CorrectedSingle + c.stats.Uncorrectable
	for i := 0; i < physmem.GroupsPerLine; i++ {
		out[i] = c.readGroup(a+physmem.Addr(i*physmem.GroupBytes), false)
	}
	// A full pass with no ECC events proves every group decodes OK: remember
	// it. (Any event leaves the line unmarked — in CheckOnly mode errors stay
	// in memory, and a handler repair already cleared the bit via the hook.)
	if c.mode != Disabled && c.stats.CorrectedSingle+c.stats.Uncorrectable == errsBefore {
		c.markClean(a)
	}
	return out
}

// WriteLine stores a 64-byte line to DRAM. With ECC enabled the controller's
// generator computes fresh check bits for every group (Figure 1a); with ECC
// disabled the stored check bits are left untouched — the WatchMemory
// scramble path.
func (c *Controller) WriteLine(a physmem.Addr, words [physmem.GroupsPerLine]uint64) {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("memctrl: WriteLine at unaligned address %#x", uint64(a)))
	}
	c.stats.LineWrites++
	if c.mode == Disabled {
		// The scramble path: the stored check bits go stale, and the
		// mutation hook has dropped the line's known-clean bit.
		c.mem.WriteLineDataOnly(a, words)
		return
	}
	var check [physmem.GroupsPerLine]uint8
	for i, w := range words {
		check[i] = uint8(ecc.Encode(w))
	}
	c.mem.WriteLineRaw(a, words, check)
	// Every group now carries freshly generated check bits: the line is
	// clean by construction.
	c.markClean(a)
}

// Image is a checkpoint of the controller's simulated state: mode, handler,
// observers, capabilities, counters and scrub cursor. The known-clean line
// bitmap and its SetFastPath switch are deliberately NOT part of the image:
// the switch is fixed at construction, and the bitmap is a host-side read
// accelerator whose entries stay valid across a restore (physmem fires the
// mutation hook for every line a restore rewrites, clearing exactly the bits
// that could go stale), and its state is observationally invisible — pinned
// by TestFastPathEquivalence.
type Image struct {
	c           *Controller
	mode        Mode
	handler     InterruptHandler
	observer    FaultObserver
	nobservers  int
	caps        Capabilities
	stats       Stats
	scrubCursor physmem.Addr
	scrubFilter func(line physmem.Addr) bool
}

// CaptureImage checkpoints the controller. Capturing with the bus locked
// (mid-scramble) is a bug and panics.
func (c *Controller) CaptureImage() *Image {
	if c.locked {
		panic("memctrl: CaptureImage with the bus locked")
	}
	return &Image{
		c:           c,
		mode:        c.mode,
		handler:     c.handler,
		observer:    c.observer,
		nobservers:  len(c.observers),
		caps:        c.caps,
		stats:       c.stats,
		scrubCursor: c.scrubCursor,
		scrubFilter: c.scrubFilter,
	}
}

// RestoreImage puts the controller back into the captured state. Observers
// appended after the capture (per-run tools and measurement probes) are
// dropped; the captured prefix is kept — observer closures bind to objects
// the machine restore puts back in place.
func (c *Controller) RestoreImage(img *Image) {
	if img.c != c {
		panic("memctrl: RestoreImage with an image captured from a different controller")
	}
	c.mode = img.mode
	c.handler = img.handler
	c.observer = img.observer
	c.observers = c.observers[:img.nobservers]
	c.locked = false
	c.caps = img.caps
	c.stats = img.stats
	c.busSpan = telemetry.Span{}
	c.scrubCursor = img.scrubCursor
	c.scrubFilter = img.scrubFilter
}

// PeekLine returns the raw data words of a line without ECC checking or
// cycle charges. It is used by the kernel to save original data before
// scrambling, and by tests.
func (c *Controller) PeekLine(a physmem.Addr) [physmem.GroupsPerLine]uint64 {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("memctrl: PeekLine at unaligned address %#x", uint64(a)))
	}
	return c.mem.ReadLineData(a)
}
