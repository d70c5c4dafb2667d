// Package inject drives hardware-error injection campaigns: while a
// workload runs, random bit flips are planted in DRAM at a configurable
// rate, and the outcome counters show how the ECC machinery and SafeMem
// divide the work — single-bit errors corrected silently by the controller,
// multi-bit errors in watched regions repaired from SafeMem's saved copies,
// multi-bit errors elsewhere escalating to a kernel panic (the stock OS
// behaviour the paper describes in Section 2.1).
//
// The injector attaches as a machine.Monitor and uses the program's own
// access stream as its clock: every N-th access plants one fault in a
// uniformly random mapped frame. Deterministic harnesses (package campaign)
// instead call PlantAt to place a fault at a chosen virtual address.
//
// Every plant is recorded as a structured Plant — intended site, fault
// class, bit positions and plant time — and detections are matched back to
// plants through a per-group FIFO, so two plants landing on the same ECC
// group (an address collision) are disambiguated by order instead of the
// newer plant silently overwriting the older one's bookkeeping.
package inject

import (
	"math/rand"

	"safemem/internal/ecc"

	"safemem/internal/machine"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
	"safemem/internal/vm"
)

// Mode selects the planted fault type.
type Mode int

const (
	// SingleBit plants correctable single-bit errors.
	SingleBit Mode = iota
	// DoubleBit plants uncorrectable double-bit errors.
	DoubleBit
	// Mixed plants mostly single-bit with ~1/8 double-bit errors.
	Mixed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SingleBit:
		return "single-bit"
	case DoubleBit:
		return "double-bit"
	case Mixed:
		return "mixed"
	default:
		return "unknown"
	}
}

// Config parameterises a campaign.
type Config struct {
	// EveryN plants one fault per N program accesses.
	EveryN uint64
	// Mode selects the fault type.
	Mode Mode
	// Seed drives the fault-site generator.
	Seed int64
	// Targets restricts fault sites to the given virtual regions (e.g. the
	// heap arena); empty means any of them.
	Targets []Region
}

// Region is a virtual address range.
type Region struct {
	Base vm.VAddr
	Size uint64
}

// Stats counts campaign activity.
type Stats struct {
	Planted       uint64
	PlantedSingle uint64
	PlantedDouble uint64
	// Resolved counts plants matched to an ECC event (corrected or
	// reported); Planted - Resolved plants are still latent in DRAM.
	Resolved uint64
	// SkippedUnmapped counts fault attempts on non-resident pages (the
	// bits would have flipped in swap, which the model does not cover).
	SkippedUnmapped uint64
}

// Plant is the structured record of one injected fault — the ground truth an
// oracle needs to classify what the detection stack later reports. The
// intended "bug" is identified by kind (single vs double bit) and site (the
// virtual address and the physical ECC group), not merely by the group
// address the old bookkeeping kept.
type Plant struct {
	// Seq is the plant's campaign-unique sequence number.
	Seq uint64
	// VAddr is the virtual fault site (0 when planted physically).
	VAddr vm.VAddr
	// Group is the physical ECC group the bits flipped in.
	Group physmem.Addr
	// Time is the simulated time of the plant.
	Time simtime.Cycles
	// Double reports whether two bits were flipped (uncorrectable).
	Double bool
	// Bits holds the flipped data-bit positions (Bits[1] is meaningful only
	// when Double).
	Bits [2]uint
}

// Outcome ties an ECC event back to the plant that caused it.
type Outcome struct {
	Plant Plant
	// DetectedAt is the simulated time the controller saw the error.
	DetectedAt simtime.Cycles
	// Uncorrectable reports whether the event escalated past silent
	// correction.
	Uncorrectable bool
}

// Latency is the plant→detection interval.
func (o Outcome) Latency() simtime.Cycles { return o.DetectedAt - o.Plant.Time }

// Injector plants faults. Attach with machine.AttachMonitor for rate-driven
// campaigns, or drive it directly with PlantAt.
type Injector struct {
	m        *machine.Machine
	cfg      Config
	src      lazySource
	rng      *rand.Rand
	accesses uint64
	seq      uint64
	stats    Stats

	// pending holds planted-but-undetected faults per ECC group, oldest
	// first. A FIFO (not a single timestamp) so address collisions — two
	// plants in the same group — stay distinguishable.
	pending  map[physmem.Addr][]Plant
	outcomes []Outcome
	observer func(Outcome)

	tr      *telemetry.Tracer
	latency *telemetry.Histogram
}

// New creates an injector for m. It registers an "inject" telemetry source
// and hooks the memory controller's fault observer so every ECC event on a
// planted group records its detection latency and resolves the plant.
func New(m *machine.Machine, cfg Config) *Injector {
	if cfg.EveryN == 0 {
		cfg.EveryN = 10_000
	}
	in := &Injector{
		m:       m,
		cfg:     cfg,
		pending: make(map[physmem.Addr][]Plant),
	}
	// The stream of rand.NewSource(cfg.Seed^0x5eed), without its seeding
	// cost (stream.go).
	in.src.Seed(cfg.Seed ^ 0x5eed)
	in.rng = rand.New(&in.src)
	in.tr = m.Telemetry.Tracer()
	in.latency = m.Telemetry.Histogram("inject", "detection_latency_cycles", telemetry.LatencyBuckets)
	m.Telemetry.RegisterSource("inject", func(emit func(string, float64)) {
		s := in.stats
		emit("planted", float64(s.Planted))
		emit("planted_single", float64(s.PlantedSingle))
		emit("planted_double", float64(s.PlantedDouble))
		emit("resolved", float64(s.Resolved))
		emit("skipped_unmapped", float64(s.SkippedUnmapped))
	})
	m.Ctrl.SetFaultObserver(in.observeFault)
	return in
}

// observeFault resolves pending plants on the faulting group. A correctable
// event consumes only the oldest plant (one flipped bit, one correction);
// an uncorrectable event resolves every pending plant on the group — they
// all contributed to the multi-bit pattern the controller saw.
func (in *Injector) observeFault(group physmem.Addr, uncorrectable bool) {
	q := in.pending[group]
	if len(q) == 0 {
		return
	}
	n := 1
	if uncorrectable {
		n = len(q)
	}
	now := in.m.Clock.Now()
	for _, p := range q[:n] {
		o := Outcome{Plant: p, DetectedAt: now, Uncorrectable: uncorrectable}
		in.outcomes = append(in.outcomes, o)
		in.stats.Resolved++
		in.latency.ObserveCycles(o.Latency())
		if in.observer != nil {
			in.observer(o)
		}
	}
	if n == len(q) {
		delete(in.pending, group)
	} else {
		in.pending[group] = q[n:]
	}
}

// SetOutcomeObserver registers a callback invoked synchronously for every
// resolved plant — the hook a campaign oracle uses to stream ground-truth
// matches instead of polling Outcomes.
func (in *Injector) SetOutcomeObserver(fn func(Outcome)) { in.observer = fn }

// Stats returns a copy of the counters.
func (in *Injector) Stats() Stats { return in.stats }

// Outcomes returns all resolved plants in detection order.
func (in *Injector) Outcomes() []Outcome {
	out := make([]Outcome, len(in.outcomes))
	copy(out, in.outcomes)
	return out
}

// PendingPlants returns the plants not yet seen by the controller, in plant
// order.
func (in *Injector) PendingPlants() []Plant {
	var out []Plant
	for _, q := range in.pending {
		out = append(out, q...)
	}
	// Map order is irrelevant once sorted by sequence number.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// OnLoad implements machine.Monitor.
func (in *Injector) OnLoad(va vm.VAddr, size int) { in.tick() }

// OnStore implements machine.Monitor.
func (in *Injector) OnStore(va vm.VAddr, size int) { in.tick() }

func (in *Injector) tick() {
	in.accesses++
	if in.accesses%in.cfg.EveryN != 0 {
		return
	}
	va, ok := in.site()
	if !ok {
		in.stats.SkippedUnmapped++
		return
	}
	double := in.cfg.Mode == DoubleBit || (in.cfg.Mode == Mixed && in.rng.Intn(8) == 0)
	b1 := uint(in.rng.Intn(64))
	b2 := uint(in.rng.Intn(63))
	if b2 >= b1 {
		b2++
	}
	if !in.plant(va, double, b1, b2) {
		in.stats.SkippedUnmapped++
	}
}

// PlantAt flips bit(s) of the ECC group containing va, recording the plant
// for outcome matching. Bit positions come from the injector's seeded
// generator. Returns false when the page is not resident.
func (in *Injector) PlantAt(va vm.VAddr, double bool) bool {
	b1 := uint(in.rng.Intn(64))
	b2 := uint(in.rng.Intn(63))
	if b2 >= b1 {
		b2++
	}
	return in.plant(va, double, b1, b2)
}

// PlantSpecific flips caller-chosen bit(s) of the ECC group containing va,
// recording the plant for outcome matching. The DRAM fault model (package
// faultmodel) uses it so its own seeded stream — not the injector's —
// decides bit positions, keeping repeating faults (weak and stuck-at cells)
// pinned to one bit. Double-bit plants still run the alias-avoidance search.
// Returns false when the page is not resident.
func (in *Injector) PlantSpecific(va vm.VAddr, double bool, b1, b2 uint) bool {
	return in.plant(va, double, b1, b2)
}

// DataBit reports the current value of data bit b of the ECC group
// containing va, bypassing cache and ECC (false when not resident). The
// fault model uses it to decide whether a stuck-at cell needs re-asserting.
func (in *Injector) DataBit(va vm.VAddr, b uint) (bool, bool) {
	frame, resident := in.m.AS.FrameOf(va)
	if !resident {
		return false, false
	}
	ga := (frame + physmem.Addr(va.PageOffset())).GroupAddr()
	// The DRAM cell holds whatever the last write-back left; a dirty cached
	// copy is newer but has not reached the cell yet, so the raw DRAM view
	// is the right one for a cell-level fault model.
	data, _ := in.m.Phys.ReadGroupRaw(ga)
	return data&(1<<b) != 0, true
}

// plant flips bit(s) of the ECC group containing va.
func (in *Injector) plant(va vm.VAddr, double bool, b1, b2 uint) bool {
	frame, resident := in.m.AS.FrameOf(va)
	if !resident {
		return false
	}
	ga := (frame + physmem.Addr(va.PageOffset())).GroupAddr()
	// Evict any cached copy first: a fault under a cache-resident line is
	// invisible until eviction (and a dirty write-back would simply
	// overwrite it). Flushing models the common case — a fault in data
	// that is not currently cached.
	in.m.Cache.FlushLine(ga.LineAddr())
	in.m.Phys.FlipDataBit(ga, b1)
	if double {
		// A double-bit fault must decode as uncorrectable. On a pristine
		// codeword any second flip does, but on a line that is already
		// corrupt — e.g. a SafeMem-scrambled watch line — an unlucky pair
		// can alias to a *correctable* syndrome and be silently absorbed
		// (real SECDED miscorrects too, but a plant that cannot fault is
		// useless to a campaign). Advance b2 to the first position whose
		// combined pattern stays uncorrectable.
		data, check := in.m.Phys.ReadGroupRaw(ga)
		for try := uint(0); try < 64; try++ {
			cand := (b2 + try) % 64
			if cand == b1 {
				continue
			}
			if _, _, res := ecc.Decode(data^(1<<cand), ecc.Check(check)); res == ecc.Uncorrectable {
				b2 = cand
				break
			}
		}
	}
	p := Plant{
		Seq:    in.seq,
		VAddr:  va,
		Group:  ga,
		Time:   in.m.Clock.Now(),
		Double: double,
		Bits:   [2]uint{b1, b2},
	}
	in.seq++
	in.stats.Planted++
	in.tr.Instant("inject", "plant", telemetry.KV("group", uint64(ga)))
	if double {
		in.m.Phys.FlipDataBit(ga, b2)
		in.stats.PlantedDouble++
	} else {
		in.stats.PlantedSingle++
	}
	in.pending[ga] = append(in.pending[ga], p)
	// A fault in DRAM under a dirty cached line will be overwritten by the
	// write-back before anyone reads it — exactly as on real hardware; no
	// special handling needed.
	return true
}

// site picks a random virtual fault address.
func (in *Injector) site() (vm.VAddr, bool) {
	if len(in.cfg.Targets) == 0 {
		return 0, false
	}
	r := in.cfg.Targets[in.rng.Intn(len(in.cfg.Targets))]
	if r.Size == 0 {
		return 0, false
	}
	return r.Base + vm.VAddr(in.rng.Int63n(int64(r.Size))), true
}
