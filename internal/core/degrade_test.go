package safemem

import (
	"testing"

	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/vm"
)

// breakLine plants a double-bit fault at va's line: two data flips destroy
// both the plain data and any scramble signature, so a read reports an
// uncorrectable error.
func breakLine(t *testing.T, r *testRig, va vm.VAddr) {
	t.Helper()
	pa, fault := r.m.AS.Translate(va, false)
	if fault != nil {
		t.Fatal(fault)
	}
	r.m.Phys.FlipDataBit(pa.GroupAddr(), 5)
	r.m.Phys.FlipDataBit(pa.GroupAddr(), 41)
}

func TestHardwareRepairRearmsWatch(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	r.m.Store64(p, 0xcafe)

	// Hardware error on the trailing guard: repaired from the saved copy,
	// and — unlike a tripped watch — the guard is re-armed afterwards.
	breakLine(t, r, p+64)
	_ = r.m.Load8(p + 64)
	st := r.tool.Stats()
	if st.HardwareErrors != 1 {
		t.Fatalf("HardwareErrors = %d, want 1", st.HardwareErrors)
	}
	if st.WatchesRearmed != 1 {
		t.Fatalf("WatchesRearmed = %d, want 1", st.WatchesRearmed)
	}
	if st.CorruptionReported != 0 {
		t.Fatalf("hardware error misreported: %v", r.tool.Reports())
	}

	// The re-armed guard still catches a real overflow.
	r.m.Store8(p+64, 0xee)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugOverflow {
		t.Fatalf("post-repair overflow reports = %v", kinds(reports))
	}
}

func TestDoubleBitOnLeakSuspectRepairedAndRewatched(t *testing.T) {
	// A leak suspect's probe takes a double-bit hardware error: the region
	// is repaired from the private copy and re-watched with its confirmation
	// clock intact, so the leak is still confirmed — and the hardware error
	// is never mistaken for an exonerating access (no prune).
	r := newTool(t, leakOpts())
	alloc := func() {
		r.m.Call(0x7777)
		_ = r.malloc(t, 48)
		r.m.Return()
		r.m.Compute(2000)
	}
	for i := 0; i < 2000 && r.tool.Stats().SuspectsFlagged == 0; i++ {
		alloc()
	}
	if r.tool.Stats().SuspectsFlagged == 0 {
		t.Fatal("no suspect ever flagged")
	}
	var suspect *watchRegion
	for _, reg := range r.tool.regions {
		if reg.kind == watchLeakSuspect && (suspect == nil || reg.base < suspect.base) {
			suspect = reg
		}
	}
	if suspect == nil {
		t.Fatal("no suspect watch region found")
	}
	armedAt := suspect.watchedAt
	obj := suspect.obj

	breakLine(t, r, suspect.base)
	_ = r.m.Load64(suspect.base) // surfaces the fault; must NOT prune

	st := r.tool.Stats()
	if st.HardwareErrors != 1 {
		t.Fatalf("HardwareErrors = %d, want 1", st.HardwareErrors)
	}
	if st.SuspectsPruned != 0 {
		t.Fatal("hardware error pruned the suspect")
	}
	if st.WatchesRearmed != 1 {
		t.Fatalf("WatchesRearmed = %d, want 1", st.WatchesRearmed)
	}
	if obj.suspect == nil {
		t.Fatal("suspect probe not restored")
	}
	if obj.suspect.watchedAt != armedAt {
		t.Fatalf("confirmation clock reset: %s -> %s", armedAt, obj.suspect.watchedAt)
	}

	for i := 0; i < 3000 && r.tool.Stats().LeaksReported == 0; i++ {
		alloc()
	}
	if r.tool.Stats().LeaksReported == 0 {
		t.Fatal("leak never confirmed after hardware repair")
	}
	if r.m.Kern.Panicked() {
		t.Fatal("kernel panicked")
	}
}

func TestFlakyLineQuarantinedAfterRepeatedFaults(t *testing.T) {
	r := newTool(t, DefaultOptions()) // QuarantineThreshold 3
	p := r.malloc(t, 64)
	r.m.Store64(p, 1)
	pad := p + 64

	for i := 0; i < 3; i++ {
		breakLine(t, r, pad)
		_ = r.m.Load8(pad)
	}
	st := r.tool.Stats()
	if st.HardwareErrors != 3 {
		t.Fatalf("HardwareErrors = %d, want 3", st.HardwareErrors)
	}
	if st.WatchesRearmed != 2 || st.RearmsSkipped != 1 {
		t.Fatalf("rearms = %d, skipped = %d; want 2/1", st.WatchesRearmed, st.RearmsSkipped)
	}
	if st.LinesQuarantined != 1 {
		t.Fatalf("LinesQuarantined = %d, want 1", st.LinesQuarantined)
	}
	if st.DegradedEvents == 0 {
		t.Fatal("quarantine left no degraded event")
	}

	// The flaky guard is gone: an overflow into it is silently missed (the
	// price of not crashing), and nothing panics.
	r.m.Store8(pad, 0xee)
	if n := r.tool.Stats().CorruptionReported; n != 0 {
		t.Fatalf("quarantined pad still reported: %d", n)
	}
	if r.m.Kern.Panicked() {
		t.Fatal("kernel panicked")
	}
}

func TestErrorStormPausesCorruptionArmingOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.DegradeErrorThreshold = 8 // two uncorrectable events
	r := newTool(t, opts)

	p1 := r.malloc(t, 64)
	p2 := r.malloc(t, 64)
	breakLine(t, r, p1+64)
	_ = r.m.Load8(p1 + 64)
	breakLine(t, r, p2+64)
	_ = r.m.Load8(p2 + 64)

	if !r.tool.CorruptionDegraded() {
		t.Fatal("two uncorrectable errors did not pause corruption arming")
	}
	if r.tool.Stats().DegradePeriods != 1 {
		t.Fatalf("DegradePeriods = %d, want 1", r.tool.Stats().DegradePeriods)
	}

	// While paused, new buffers get no guards: the overflow is missed.
	q := r.malloc(t, 64)
	if got := r.tool.Stats().WatchesSuppressed; got < 2 {
		t.Fatalf("WatchesSuppressed = %d, want >= 2", got)
	}
	r.m.Store8(q+64, 1)
	if n := r.tool.Stats().CorruptionReported; n != 0 {
		t.Fatalf("degraded-mode alloc still guarded: %d reports", n)
	}

	// After the window passes, arming resumes and detection is back.
	r.m.Compute(2 * uint64(opts.DegradeWindow))
	if r.tool.CorruptionDegraded() {
		t.Fatal("degradation did not expire")
	}
	q2 := r.malloc(t, 64)
	r.m.Store8(q2+64, 1)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugOverflow {
		t.Fatalf("post-recovery reports = %v", kinds(reports))
	}
}

func TestSingleBitFaultDuringCoordinatedScrub(t *testing.T) {
	// A single-bit fault lands on a (normally watched) guard line inside the
	// scrub window — while the watches are temporarily disabled and the data
	// is plain. The scrubber corrects it before the watch is re-armed, so
	// monitoring resumes on clean data and SafeMem never even counts a
	// hardware error.
	r := newTool(t, DefaultOptions())
	r.m.Ctrl.SetMode(memctrl.CorrectAndScrub)
	p := r.malloc(t, 64)
	r.m.Store64(p, 0x42)

	r.tool.scrubBefore()
	pa, fault := r.m.AS.Translate(p+64, false)
	if fault != nil {
		t.Fatal(fault)
	}
	r.m.Phys.FlipDataBit(pa.GroupAddr(), 13)
	r.m.Ctrl.ScrubAll()
	r.tool.scrubAfter()

	if r.m.Ctrl.Stats().ScrubCorrected == 0 {
		t.Fatal("scrubber did not correct the in-window fault")
	}
	st := r.tool.Stats()
	if st.HardwareErrors != 0 {
		t.Fatalf("HardwareErrors = %d, want 0 (scrub got there first)", st.HardwareErrors)
	}
	if got := r.m.Load64(p); got != 0x42 {
		t.Fatalf("data after scrub = %#x", got)
	}
	// The re-armed guard still works.
	r.m.Store8(p+64, 1)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugOverflow {
		t.Fatalf("post-scrub reports = %v", kinds(reports))
	}
}

func TestUnwatchedFaultUnderBothRetirementPolicies(t *testing.T) {
	// A double-bit error on a line SafeMem does not watch. Stock policy: the
	// kernel panics (the paper's machine-check behaviour). RetireAndContinue:
	// the run survives, the kernel absorbs the loss, and monitoring of
	// everything else keeps working.
	t.Run("panic", func(t *testing.T) {
		r := newTool(t, DefaultOptions())
		p := r.malloc(t, 64)
		r.m.Store64(p, 7)
		r.m.Cache.FlushAll()
		breakLine(t, r, p)
		err := r.m.Run(func() error {
			_ = r.m.Load64(p)
			return nil
		})
		if err == nil || !r.m.Kern.Panicked() {
			t.Fatal("stock policy did not panic on an unwatched uncorrectable error")
		}
	})
	t.Run("retire-and-continue", func(t *testing.T) {
		r := newTool(t, DefaultOptions())
		r.m.Kern.SetResilience(kernel.ResilienceOptions{Policy: kernel.RetireAndContinue})
		p := r.malloc(t, 64)
		r.m.Store64(p, 7)
		r.m.Cache.FlushAll()
		breakLine(t, r, p)
		_ = r.m.Load64(p)
		if r.m.Kern.Panicked() {
			t.Fatal("RetireAndContinue panicked")
		}
		if got := r.m.Kern.ResilienceStats().DataLossEvents; got != 1 {
			t.Fatalf("DataLossEvents = %d, want 1", got)
		}
		if r.tool.Stats().HardwareErrors != 0 {
			t.Fatal("unwatched fault charged to SafeMem's repair counter")
		}
		// Detection still works after the survived fault.
		q := r.malloc(t, 64)
		r.m.Store8(q+64, 1)
		reports := r.tool.Reports()
		if len(reports) != 1 || reports[0].Kind != BugOverflow {
			t.Fatalf("post-survival reports = %v", kinds(reports))
		}
	})
}
