// Package machine assembles the simulated computer — CPU, call stack, data
// cache, ECC memory controller, DRAM, virtual memory, kernel — and exposes
// the load/store interface simulated programs run against.
//
// Monitoring tools attach in two very different ways, mirroring the paper:
//
//   - Purify-style tools implement Monitor and are invoked on *every* load
//     and store, which is where their overhead comes from;
//   - SafeMem never sees individual accesses: it only wraps allocation
//     events and receives ECC faults through the kernel.
package machine

import (
	"fmt"

	"safemem/internal/cache"
	"safemem/internal/callstack"
	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// Config sizes the machine.
type Config struct {
	// MemBytes is the physical DRAM size. Default 64 MiB.
	MemBytes uint64
	// Cache configures the data cache. Default cache.DefaultConfig.
	Cache cache.Config
	// DirectECCAccess equips the memory controller with the generalised
	// software-friendly ECC interface the paper proposes in Section 2.2.3.
	// Off by default: commodity chipsets (the paper's platform) lack it.
	DirectECCAccess bool
	// Telemetry is the metrics/trace registry the machine's components
	// register into. When nil, New creates a quiet default (tracing off, no
	// sampler) so components can stay registry-agnostic.
	Telemetry *telemetry.Registry
	// Reference builds the machine with every host-side fast lane off: the
	// controller's known-clean line bitmap, the software TLB and the batched
	// access lane, and a Pool of this Config never recycles — every Get
	// builds fresh. Simulated results are identical either way; reference
	// machines are the oracle the fast lanes are tested against
	// (the Reference sweep in internal/campaign, FuzzMachineDifferential).
	Reference bool
}

// DefaultConfig returns the standard machine configuration.
func DefaultConfig() Config {
	return Config{MemBytes: 64 << 20, Cache: cache.DefaultConfig}
}

// Monitor observes every memory access of the simulated program. This is
// the attachment point for Purify-style dynamic checkers. Implementations
// charge their own instrumentation cycles to the machine clock.
type Monitor interface {
	// OnLoad is called before a load of size bytes at va executes.
	OnLoad(va vm.VAddr, size int)
	// OnStore is called before a store of size bytes at va executes.
	OnStore(va vm.VAddr, size int)
}

// Tracer additionally observes the non-memory program events — compute
// charges and call-stack movement — that a full workload trace needs
// (package trace). Unlike monitors, at most one tracer is attached and it
// charges no cycles.
type Tracer interface {
	OnCompute(cycles uint64)
	OnCall(site uint64)
	OnReturn()
}

// AccessError is thrown (via panic) when the simulated program performs an
// access the VM cannot satisfy — the simulator's SIGSEGV.
type AccessError struct {
	Fault *vm.Fault
}

// Error implements error.
func (e *AccessError) Error() string { return "segmentation fault: " + e.Fault.Error() }

// Stats counts program-level activity.
type Stats struct {
	Loads  uint64
	Stores uint64
}

// Machine is the assembled simulated computer. Create with New.
type Machine struct {
	Clock *simtime.Clock
	Phys  *physmem.Memory
	Ctrl  *memctrl.Controller
	Cache *cache.Cache
	AS    *vm.AddressSpace
	Kern  *kernel.Kernel
	Stack *callstack.Stack

	// Telemetry is the registry every component of this machine reports into.
	Telemetry *telemetry.Registry

	monitors []Monitor
	tracer   Tracer
	stats    Stats
	// instrs counts executed simulated instructions: one per load/store plus
	// one per Compute cycle (CostInstr is 1). Kept outside Stats so existing
	// result records and JSON summaries are unchanged; the repository
	// benchmark reads it to convert host wall-clock into ns-per-instruction.
	instrs uint64
	cur    access
	// batch is the batched-access fast lane's windows and host-side
	// counters (batch.go). Reset by Recycle so pooled machines never leak a
	// stale batch window across tenants.
	batch batchLane
	// reference is Config.Reference: the batch lane is refused (laneOK).
	reference bool
	// pristine is the snapshot New captures of the just-built machine;
	// Recycle restores it.
	pristine *Snapshot
	// spares is host-side storage per-run objects left for the next run on
	// this machine (PutSpare).
	spares []spare
}

// spare is one PutSpare entry.
type spare struct{ key, val any }

// PutSpare parks val, the storage of a per-run object whose run on this
// machine is over (a heap allocator, a SafeMem tool), under key. The next
// run on this machine takes it back with TakeSpare and resets it instead
// of allocating afresh, so a pooled machine's runs stop producing host
// garbage. Spares hold no simulated state: Recycle keeps them, and a
// machine its Pool drops takes them along. The caller must not use val
// after parking it.
func (m *Machine) PutSpare(key, val any) {
	for i := range m.spares {
		if m.spares[i].key == key {
			m.spares[i].val = val
			return
		}
	}
	m.spares = append(m.spares, spare{key, val})
}

// TakeSpare removes and returns the value parked under key, or nil.
func (m *Machine) TakeSpare(key any) any {
	for i := range m.spares {
		if m.spares[i].key == key {
			v := m.spares[i].val
			m.spares[i].val = nil
			return v
		}
	}
	return nil
}

// access describes the load/store currently executing, if any.
type access struct {
	active bool
	write  bool
	va     vm.VAddr
	size   int
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	if cfg.Cache.Sets == 0 {
		cfg.Cache = cache.DefaultConfig
	}
	clock := &simtime.Clock{}
	phys, err := physmem.New(cfg.MemBytes)
	if err != nil {
		return nil, err
	}
	ctrl := memctrl.New(phys, clock)
	if cfg.DirectECCAccess {
		ctrl.EnableDirectECCAccess()
	}
	ch, err := cache.New(ctrl, clock, cfg.Cache)
	if err != nil {
		return nil, err
	}
	as := vm.New(phys, clock)
	if cfg.Reference {
		ctrl.SetFastPath(false)
		as.SetTLB(false)
	}
	kern := kernel.New(clock, ctrl, ch, as)
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry("", telemetry.Config{})
	}
	m := &Machine{
		Clock: clock,
		Phys:  phys,
		Ctrl:  ctrl,
		Cache: ch,
		AS:    as,
		Kern:  kern,
		Stack: &callstack.Stack{},

		reference: cfg.Reference,
	}
	reg.AttachClock(clock)
	m.Telemetry = reg
	phys.RegisterTelemetry(reg)
	ctrl.RegisterTelemetry(reg)
	ch.RegisterTelemetry(reg)
	as.RegisterTelemetry(reg)
	kern.RegisterTelemetry(reg)
	reg.RegisterSource("machine", func(emit func(string, float64)) {
		emit("loads", float64(m.stats.Loads))
		emit("stores", float64(m.stats.Stores))
		emit("batch_runs", float64(m.batch.runs))
		emit("batch_fast_ops", float64(m.batch.fastOps))
		emit("batch_slow_ops", float64(m.batch.slowOps))
	})
	m.pristine = m.Snapshot()
	return m, nil
}

// Recycle returns the machine to the state New left it in by restoring the
// pristine snapshot New captured. Only the DRAM lines, cache ways and page
// mappings the previous run dirtied are rewritten, so recycling costs in
// proportion to the run's footprint, not the DRAM size — the point of
// pooling machines across runs (Pool). Everything Config chose survives,
// DirectECCAccess and Reference included.
//
// The telemetry registry is kept, and its sources are truncated back to the
// components New registered: the per-run sources a tool, heap, injector,
// fault model or sampler added are dropped, so a recycled machine never
// carries duplicate emitters or reads a previous run's freed state.
// Registry-owned counters and histograms keep counting across runs. A
// machine built with a caller-owned cfg.Telemetry registry should therefore
// not be pooled: that registry is its run's output.
func (m *Machine) Recycle() { m.Restore(m.pristine) }

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// AttachMonitor registers a per-access monitor (Purify-style tool).
func (m *Machine) AttachMonitor(mon Monitor) { m.monitors = append(m.monitors, mon) }

// DetachMonitors removes all monitors.
func (m *Machine) DetachMonitors() { m.monitors = nil }

// Stats returns a copy of the access counters.
func (m *Machine) Stats() Stats { return m.stats }

// Instructions returns the simulated-instruction count executed so far (see
// the instrs field for the accounting rule).
func (m *Machine) Instructions() uint64 { return m.instrs }

// translate resolves va for a size-byte access, delivering protection
// faults to the registered user handler (the page-protection baseline) and
// retrying once if the handler claims to have resolved the fault.
func (m *Machine) translate(va vm.VAddr, write bool) physmem.Addr {
	for attempt := 0; ; attempt++ {
		pa, fault := m.AS.Translate(va, write)
		if fault == nil {
			return pa
		}
		if fault.Kind == vm.FaultProtection && attempt == 0 {
			if h := m.Kern.PageFaultHandler(); h != nil && h(fault) {
				continue
			}
		}
		panic(&AccessError{Fault: fault})
	}
}

// Load reads size bytes (1, 2, 4 or 8; must not cross an 8-byte boundary)
// at va, returned little-endian in the low bytes of the result.
func (m *Machine) Load(va vm.VAddr, size int) uint64 {
	for _, mon := range m.monitors {
		mon.OnLoad(va, size)
	}
	m.stats.Loads++
	m.instrs++
	m.Clock.Advance(simtime.CostInstr)
	// Explicit in-flight save/restore: the normal path clears cur inline,
	// and a panicking access (segfault, kernel panic, tool abort) has it
	// cleared by Run's recover. No closure, no defer — this is the hottest
	// loop in the simulator and must not allocate.
	m.cur = access{active: true, write: false, va: va, size: size}
	pa := m.translate(va, false)
	v := m.Cache.LoadBytes(pa, size)
	m.cur = access{}
	// Deferred kernel work (page retirements, watch re-arms, scrub-daemon
	// steps) runs only here, between accesses, never inside one. The common
	// case is one branch on an empty queue.
	if m.Kern.WorkPending() {
		m.Kern.RunDeferredWork()
	}
	return v
}

// Store writes the low size bytes of v at va.
func (m *Machine) Store(va vm.VAddr, size int, v uint64) {
	for _, mon := range m.monitors {
		mon.OnStore(va, size)
	}
	m.stats.Stores++
	m.instrs++
	m.Clock.Advance(simtime.CostInstr)
	m.cur = access{active: true, write: true, va: va, size: size}
	pa := m.translate(va, true)
	m.Cache.StoreBytes(pa, size, v)
	m.cur = access{}
	if m.Kern.WorkPending() {
		m.Kern.RunDeferredWork()
	}
}

// AccessInFlight describes the program access currently executing, for use
// by fault handlers. ok is false outside any access. On the paper's
// hardware this information would come from a precise ECC interrupt
// decoding the faulting instruction (Section 2.2.3); the simulator provides
// it directly, which SafeMem uses only for the uninitialized-read
// extension, exactly the enhancement the paper says precise interrupts
// would enable.
func (m *Machine) AccessInFlight() (va vm.VAddr, size int, write bool, ok bool) {
	return m.cur.va, m.cur.size, m.cur.write, m.cur.active
}

// Load8 reads one byte at va.
func (m *Machine) Load8(va vm.VAddr) uint8 { return uint8(m.Load(va, 1)) }

// Load64 reads an 8-byte word at va (must be 8-byte aligned).
func (m *Machine) Load64(va vm.VAddr) uint64 { return m.Load(va, 8) }

// Store8 writes one byte at va.
func (m *Machine) Store8(va vm.VAddr, v uint8) { m.Store(va, 1, uint64(v)) }

// Store64 writes an 8-byte word at va (must be 8-byte aligned).
func (m *Machine) Store64(va vm.VAddr, v uint64) { m.Store(va, 8, v) }

// Memset writes b to n consecutive bytes starting at va, using word stores
// where alignment allows — the simulated memset. Served through the batched
// fast lane when enabled; the access sequence (byte stores up to the first
// 8-byte boundary, word stores while at least 8 bytes remain, byte stores
// for the tail) is identical either way.
func (m *Machine) Memset(va vm.VAddr, b uint8, n uint64) {
	word := uint64(b)
	word |= word << 8
	word |= word << 16
	word |= word << 32
	end := va + vm.VAddr(n)
	if !m.laneOK() {
		for va < end {
			if uint64(va)%8 == 0 && end-va >= 8 {
				m.Store(va, 8, word)
				va += 8
			} else {
				m.Store(va, 1, uint64(b))
				va++
			}
		}
		return
	}
	r := m.spanBegin(true)
	for va < end {
		if uint64(va)%8 == 0 && end-va >= 8 {
			va = m.span(&r, &span{kind: spanFill, size: 8, fill: word}, va, uint64(end-va)/8)
			continue
		}
		// Byte stores up to the next 8-byte boundary, or to the end when
		// fewer than 8 bytes remain past it.
		bytes := uint64(end - va)
		if head := (8 - uint64(va)%8) % 8; head != 0 && head < bytes {
			bytes = head
		}
		va = m.span(&r, &span{kind: spanFill, size: 1, fill: uint64(b)}, va, bytes)
	}
	m.spanEnd(&r)
}

// Memcpy copies n bytes from src to dst (non-overlapping), word-at-a-time
// where alignment allows. Delegates to the batched CopyRun, whose access
// sequence is identical to the historical open-coded loop.
func (m *Machine) Memcpy(dst, src vm.VAddr, n uint64) {
	m.CopyRun(dst, src, n)
}

// PeekWord reads the aligned 8-byte word containing va as the CPU would
// observe it, without charging cycles, notifying monitors, or raising
// faults. Tools use it for whole-heap scans whose cost is modelled
// separately (e.g. Purify's mark-and-sweep). Returns 0,false if va is not
// mapped.
func (m *Machine) PeekWord(va vm.VAddr) (uint64, bool) {
	// Bypass protection checks — a scanner sees all resident data — and
	// skip pages that are swapped out rather than forcing them in.
	frame, ok := m.AS.FrameOf(va)
	if !ok {
		return 0, false
	}
	pa := frame + physmem.Addr(va.PageOffset()&^7)
	return m.Cache.PeekWord(pa), true
}

// SetTracer installs (or, with nil, removes) the workload tracer.
func (m *Machine) SetTracer(tr Tracer) { m.tracer = tr }

// Compute charges n cycles of pure computation (no memory traffic).
func (m *Machine) Compute(n uint64) {
	if m.tracer != nil {
		m.tracer.OnCompute(n)
	}
	m.instrs += n
	m.Clock.Advance(simtime.Cycles(n))
	if m.Kern.WorkPending() {
		m.Kern.RunDeferredWork()
	}
}

// Call records entry into a simulated function whose call site is ret.
func (m *Machine) Call(ret uint64) {
	if m.tracer != nil {
		m.tracer.OnCall(ret)
	}
	m.Stack.Push(ret)
}

// Return records exit from the current simulated function.
func (m *Machine) Return() {
	if m.tracer != nil {
		m.tracer.OnReturn()
	}
	m.Stack.Pop()
}

// Run executes the simulated program f, converting the simulator's
// termination panics — kernel panic mode and segmentation faults — into
// ordinary errors. Any other panic is a simulator bug and is re-raised.
func (m *Machine) Run(f func() error) (err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		// A termination panic can unwind out of a half-finished access;
		// clear the in-flight record the access would have cleared itself.
		m.cur = access{}
		switch v := v.(type) {
		case *kernel.PanicError:
			err = v
		case *AccessError:
			err = v
		case *ProgramAbort:
			err = v
		default:
			panic(v)
		}
	}()
	return f()
}

// ProgramAbort is thrown by tools that pause/stop the program on a detected
// bug (SafeMem's "pause execution so the programmer can attach gdb").
type ProgramAbort struct {
	Reason string
}

// Error implements error.
func (p *ProgramAbort) Error() string { return "program aborted: " + p.Reason }

// Abort stops the simulated program with the given reason.
func Abort(format string, args ...any) {
	panic(&ProgramAbort{Reason: fmt.Sprintf(format, args...)})
}
