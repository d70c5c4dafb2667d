package faultmodel

import (
	"testing"

	"safemem/internal/heap"
	"safemem/internal/inject"
	"safemem/internal/kernel"
	"safemem/internal/machine"
	"safemem/internal/vm"
)

const arena = vm.VAddr(0x10000)
const arenaPages = 4
const arenaBytes = uint64(arenaPages) * vm.PageBytes

// newRig builds a machine with a mapped arena, RetireAndContinue (the fault
// model plants uncorrectables; stock policy would panic the first time the
// workload reads one), and an injector for attribution.
func newRig(t *testing.T) (*machine.Machine, *inject.Injector) {
	t.Helper()
	m := machine.MustNew(machine.Config{MemBytes: 1 << 20})
	m.Kern.SetResilience(kernel.ResilienceOptions{Policy: kernel.RetireAndContinue})
	if err := m.Kern.MapPages(arena, arenaPages); err != nil {
		t.Fatal(err)
	}
	return m, inject.New(m, inject.Config{Seed: 1})
}

// workload runs a deterministic read/write loop over the arena, giving the
// clock time to fire fault events and the deferred queue points to drain.
func workload(m *machine.Machine, iters int) {
	for i := 0; i < iters; i++ {
		va := arena + vm.VAddr(uint64(i*56)%arenaBytes)&^7
		m.Store(va, 8, uint64(i))
		_ = m.Load(va, 8)
		m.Compute(2_000)
	}
}

func TestFaultProcessIsSeedDeterministic(t *testing.T) {
	run := func() (Stats, inject.Stats) {
		m, in := newRig(t)
		p := Start(m, in, Config{
			Seed:         42,
			MeanInterval: 20_000,
			Targets:      []inject.Region{{Base: arena, Size: arenaBytes}},
		})
		workload(m, 400)
		p.Stop()
		return p.Stats(), in.Stats()
	}
	s1, i1 := run()
	s2, i2 := run()
	if s1 != s2 {
		t.Fatalf("fault-process stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if i1 != i2 {
		t.Fatalf("injector stats diverged across identical runs:\n%+v\n%+v", i1, i2)
	}
	if s1.Events == 0 {
		t.Fatal("fault process planted nothing")
	}
	if i1.Planted == 0 {
		t.Fatal("no plants reached the injector")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed uint64) Stats {
		m, in := newRig(t)
		p := Start(m, in, Config{
			Seed:         seed,
			MeanInterval: 20_000,
			Targets:      []inject.Region{{Base: arena, Size: arenaBytes}},
		})
		workload(m, 400)
		p.Stop()
		return p.Stats()
	}
	if run(1) == run(2) {
		t.Fatal("two seeds produced identical fault histories")
	}
}

func TestStormEpisodesRaiseTheRate(t *testing.T) {
	m, in := newRig(t)
	p := Start(m, in, Config{
		Seed:          7,
		MeanInterval:  50_000,
		DoubleBitFrac: -1, // single-bit only: isolate rate behaviour
		StormInterval: 150_000,
		StormLength:   300_000,
		StormFactor:   10,
		Targets:       []inject.Region{{Base: arena, Size: arenaBytes}},
	})
	workload(m, 500)
	p.Stop()
	s := p.Stats()
	if s.Storms == 0 {
		t.Fatal("no storm episode started")
	}
	// ~1M cycles of workload at mean 50k would give ~20 events without
	// storms; with most of the run inside factor-10 episodes the count must
	// be far higher. A loose 2x bound keeps the test robust to the seed.
	if s.Events < 40 {
		t.Fatalf("only %d events despite storms (storms=%d)", s.Events, s.Storms)
	}
}

func TestStuckCellReassertsAfterRepair(t *testing.T) {
	m, in := newRig(t)
	p := Start(m, in, Config{
		Seed:            3,
		MeanInterval:    30_000,
		TransientWeight: -1, IntermittentWeight: -1, StuckAtWeight: 1,
		StuckCheckInterval: 10_000,
		Targets:            []inject.Region{{Base: arena, Size: arenaBytes}},
	})
	workload(m, 600)
	p.Stop()
	s := p.Stats()
	if s.StuckAt == 0 {
		t.Fatal("no stuck-at cell created")
	}
	// The workload keeps reading the arena; every demand correction
	// "repairs" the cell in DRAM and the next check re-asserts it.
	if s.Refires == 0 {
		t.Fatal("stuck cell never re-asserted after repair")
	}
	if m.Ctrl.Stats().CorrectedSingle == 0 {
		t.Fatal("stuck cell faults never reached the controller")
	}
	if m.Kern.Panicked() {
		t.Fatal("kernel panicked")
	}
}

func TestPlantsStayAttributable(t *testing.T) {
	m, in := newRig(t)
	p := Start(m, in, Config{
		Seed:          9,
		MeanInterval:  15_000,
		DoubleBitFrac: -1,
		Targets:       []inject.Region{{Base: arena, Size: arenaBytes}},
	})
	workload(m, 400)
	p.Stop()
	is := in.Stats()
	if is.Planted == 0 {
		t.Fatal("nothing planted")
	}
	// Every controller-observed event on a planted group resolves through
	// the injector FIFO; with a read-heavy workload most plants are found.
	if is.Resolved == 0 {
		t.Fatal("no plant was ever attributed to an ECC event")
	}
	for _, o := range in.Outcomes() {
		if o.DetectedAt < o.Plant.Time {
			t.Fatalf("outcome detected before plant: %+v", o)
		}
	}
}

// TestStartFlakyPolicy pins the flaky-DIMM policy StartFlaky owns: Retire
// alone switches the kernel policy without starting a process; a positive
// rate without Retire plants single-bit faults only, storms when asked,
// and runs the scrub daemon under the stock kernel policy.
func TestStartFlakyPolicy(t *testing.T) {
	newHeap := func() (*machine.Machine, *heap.Allocator) {
		m := machine.MustNew(machine.Config{MemBytes: 4 << 20})
		alloc, err := heap.New(m, heap.Options{Limit: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return m, alloc
	}

	m, alloc := newHeap()
	if p := StartFlaky(m, inject.New(m, inject.Config{Seed: 1}), alloc, 1, 0, true, true); p != nil {
		t.Fatal("StartFlaky started a process at rate 0")
	}
	if got := m.Kern.Resilience().Policy; got != kernel.RetireAndContinue {
		t.Fatalf("retire at rate 0: policy %v, want RetireAndContinue", got)
	}

	m, alloc = newHeap()
	p := StartFlaky(m, inject.New(m, inject.Config{Seed: 1}), alloc, 1, 2000, true, false)
	if p == nil {
		t.Fatal("StartFlaky started no process at a positive rate")
	}
	if got := m.Kern.Resilience().Policy; got != kernel.PanicOnUncorrectable {
		t.Fatalf("without retire: policy %v, want the stock PanicOnUncorrectable", got)
	}
	if err := m.Run(func() error {
		for i := 0; i < 200; i++ {
			va, err := alloc.Malloc(256)
			if err != nil {
				return err
			}
			m.Store(va, 8, uint64(i))
			m.Compute(5_000)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	st := p.Stats()
	if st.Events == 0 || st.Storms == 0 {
		t.Fatalf("fault process too quiet: %+v", st)
	}
	if st.DoubleBit != 0 {
		t.Fatalf("%d double-bit plants without retire", st.DoubleBit)
	}
	if m.Kern.ResilienceStats().ScrubDaemonSteps == 0 {
		t.Fatal("scrub daemon never stepped")
	}
}
