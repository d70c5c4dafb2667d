package memctrl

import (
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
)

func newTestController(size uint64) (*Controller, *simtime.Clock) {
	clock := &simtime.Clock{}
	mem := physmem.MustNew(size)
	return New(mem, clock), clock
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	for i := range line {
		line[i] = uint64(i) * 0x1111111111111111
	}
	c.WriteLine(128, line)
	got := c.ReadLine(128)
	if got != line {
		t.Fatalf("ReadLine = %v, want %v", got, line)
	}
	st := c.Stats()
	if st.LineReads != 1 || st.LineWrites != 1 {
		t.Fatalf("stats = %+v, want 1 read / 1 write", st)
	}
	if st.CorrectedSingle != 0 || st.Uncorrectable != 0 {
		t.Fatalf("clean round trip reported errors: %+v", st)
	}
}

func TestUnalignedLinePanics(t *testing.T) {
	c, _ := newTestController(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("ReadLine at unaligned address did not panic")
		}
	}()
	c.ReadLine(8)
}

func TestSingleBitErrorCorrectedOnRead(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	line[3] = 0xdeadbeefcafef00d
	c.WriteLine(0, line)

	// Inject a hardware single-bit error into group 3.
	c.Memory().FlipDataBit(3*physmem.GroupBytes, 17)

	got := c.ReadLine(0)
	if got != line {
		t.Fatalf("single-bit error not corrected: %v", got)
	}
	if c.Stats().CorrectedSingle != 1 {
		t.Fatalf("CorrectedSingle = %d, want 1", c.Stats().CorrectedSingle)
	}
	// Correct-Error mode repairs DRAM, so a second read is clean.
	c.ReadLine(0)
	if c.Stats().CorrectedSingle != 1 {
		t.Fatal("correction was not written back to DRAM")
	}
}

func TestCheckOnlyModeDoesNotRepair(t *testing.T) {
	c, _ := newTestController(4096)
	c.SetMode(CheckOnly)
	var line [physmem.GroupsPerLine]uint64
	line[0] = 42
	c.WriteLine(0, line)
	c.Memory().FlipDataBit(0, 5)

	c.ReadLine(0)
	c.ReadLine(0)
	if got := c.Stats().CorrectedSingle; got != 2 {
		t.Fatalf("CheckOnly reported %d single-bit errors, want 2 (no repair)", got)
	}
}

func TestMultiBitErrorRaisesInterrupt(t *testing.T) {
	c, _ := newTestController(4096)
	var reports []FaultReport
	c.SetInterruptHandler(func(r FaultReport) { reports = append(reports, r) })

	var line [physmem.GroupsPerLine]uint64
	line[2] = 0x123456789abcdef0
	c.WriteLine(64, line)
	// Two flipped bits in the same group: uncorrectable.
	ga := physmem.Addr(64 + 2*physmem.GroupBytes)
	c.Memory().FlipDataBit(ga, 1)
	c.Memory().FlipDataBit(ga, 40)

	c.ReadLine(64)
	if len(reports) != 1 {
		t.Fatalf("got %d interrupts, want 1", len(reports))
	}
	r := reports[0]
	if r.Group != ga || r.Line != 64 || r.DuringScrub {
		t.Fatalf("bad report: %+v", r)
	}
	if c.Stats().Uncorrectable != 1 {
		t.Fatalf("Uncorrectable = %d, want 1", c.Stats().Uncorrectable)
	}
}

func TestHandlerRepairIsPickedUp(t *testing.T) {
	// When the interrupt handler repairs the faulting group (as SafeMem's
	// DisableWatchMemory does), the read must return the repaired data.
	c, _ := newTestController(4096)
	orig := uint64(0xfeedfacefeedface)
	ga := physmem.Addr(0)
	c.SetInterruptHandler(func(r FaultReport) {
		c.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
	})

	var line [physmem.GroupsPerLine]uint64
	line[0] = orig
	c.WriteLine(0, line)
	// Scramble group 0 the way WatchMemory does: new data, stale check bits.
	c.Memory().WriteGroupDataOnly(ga, ecc.Scramble(orig))

	got := c.ReadLine(0)
	if got[0] != orig {
		t.Fatalf("read after handler repair = %#x, want %#x", got[0], orig)
	}
}

func TestDisabledModeBypassesECC(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	line[0] = 0xaaaa
	c.WriteLine(0, line)

	c.SetMode(Disabled)
	line[0] = 0xbbbb
	c.WriteLine(0, line) // stale check bits remain

	if got := c.ReadLine(0); got[0] != 0xbbbb {
		t.Fatalf("disabled-mode read = %#x, want %#x", got[0], 0xbbbb)
	}
	fired := false
	c.SetInterruptHandler(func(FaultReport) { fired = true })
	c.SetMode(CorrectError)
	c.ReadLine(0)
	// 0xaaaa -> 0xbbbb differs in bits 0,1,4,5,8,9,12,13 — even weight, so
	// SECDED must flag it.
	if !fired {
		t.Fatal("re-enabled ECC did not detect the stale check bits")
	}
}

func TestBusLock(t *testing.T) {
	c, _ := newTestController(4096)
	c.LockBus()
	if !c.BusLocked() {
		t.Fatal("bus not locked")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double lock did not panic")
			}
		}()
		c.LockBus()
	}()
	c.UnlockBus()
	if c.BusLocked() {
		t.Fatal("bus still locked")
	}
}

func TestScrubRepairsLatentErrors(t *testing.T) {
	c, _ := newTestController(4096)
	c.SetMode(CorrectAndScrub)
	var line [physmem.GroupsPerLine]uint64
	line[5] = 0x0102030405060708
	c.WriteLine(1024, line)
	c.Memory().FlipDataBit(1024+5*physmem.GroupBytes, 60)

	c.ScrubAll()
	st := c.Stats()
	if st.ScrubbedLines != c.Memory().Lines() {
		t.Fatalf("scrubbed %d lines, want %d", st.ScrubbedLines, c.Memory().Lines())
	}
	if st.ScrubCorrected != 1 {
		t.Fatalf("ScrubCorrected = %d, want 1", st.ScrubCorrected)
	}
	raw, _ := c.Memory().ReadGroupRaw(1024 + 5*physmem.GroupBytes)
	if raw != line[5] {
		t.Fatal("scrub did not repair DRAM")
	}
}

func TestScrubRespectsBusLockAndMode(t *testing.T) {
	c, _ := newTestController(4096)
	if n, skipped := c.ScrubStep(4); n != 0 || skipped != 0 {
		t.Fatalf("scrub ran in CorrectError mode: n=%d skipped=%d", n, skipped)
	}
	c.SetMode(CorrectAndScrub)
	c.LockBus()
	if n, skipped := c.ScrubStep(4); n != 0 || skipped != 4 {
		t.Fatalf("scrub under bus lock: n=%d skipped=%d, want 0, 4", n, skipped)
	}
	if st := c.Stats(); st.ScrubSkipped != 4 {
		t.Fatalf("ScrubSkipped = %d, want 4", st.ScrubSkipped)
	}
	c.UnlockBus()
	if n, skipped := c.ScrubStep(4); n != 4 || skipped != 0 {
		t.Fatalf("scrub step: n=%d skipped=%d, want 4, 0", n, skipped)
	}
}

func TestAddFaultObserverCoexistsWithSetSlot(t *testing.T) {
	c, _ := newTestController(4096)
	var slot, extra1, extra2 int
	c.SetFaultObserver(func(physmem.Addr, bool) { slot++ })
	c.AddFaultObserver(func(physmem.Addr, bool) { extra1++ })
	c.AddFaultObserver(func(physmem.Addr, bool) { extra2++ })
	var line [physmem.GroupsPerLine]uint64
	line[0] = 0xdead
	c.WriteLine(0, line)
	c.Memory().FlipDataBit(0, 3)
	c.ReadLine(0)
	if slot != 1 || extra1 != 1 || extra2 != 1 {
		t.Fatalf("observer counts slot=%d extra1=%d extra2=%d, want 1 each", slot, extra1, extra2)
	}
}

func TestScrubWouldTripWatchedLine(t *testing.T) {
	// Demonstrates why the kernel must unwatch regions before scrubbing: a
	// scrub pass reads scrambled lines and raises spurious faults.
	c, _ := newTestController(4096)
	orig := uint64(0x1111222233334444)
	var line [physmem.GroupsPerLine]uint64
	line[0] = orig
	c.WriteLine(0, line)
	c.Memory().WriteGroupDataOnly(0, ecc.Scramble(orig))

	var scrubFaults int
	c.SetInterruptHandler(func(r FaultReport) {
		if r.DuringScrub {
			scrubFaults++
		}
		// Repair so the scrub can continue.
		c.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
	})
	c.SetMode(CorrectAndScrub)
	c.ScrubAll()
	if scrubFaults != 1 {
		t.Fatalf("scrub faults = %d, want 1", scrubFaults)
	}
}

func TestScrubCursorWraps(t *testing.T) {
	c, _ := newTestController(256) // 4 lines
	c.SetMode(CorrectAndScrub)
	c.ScrubStep(3)
	if c.ScrubCursor() != 192 {
		t.Fatalf("cursor = %d, want 192", c.ScrubCursor())
	}
	c.ScrubStep(2)
	if c.ScrubCursor() != 64 {
		t.Fatalf("cursor after wrap = %d, want 64", c.ScrubCursor())
	}
}

func TestClockCharges(t *testing.T) {
	c, clock := newTestController(4096)
	before := clock.Now()
	c.SetMode(CheckOnly)
	if clock.Now()-before != simtime.CostECCModeSwitch {
		t.Fatal("SetMode did not charge the mode-switch cost")
	}
	before = clock.Now()
	c.LockBus()
	c.UnlockBus()
	if clock.Now()-before != simtime.CostBusLock+simtime.CostBusUnlock {
		t.Fatal("bus lock/unlock did not charge costs")
	}
}

func BenchmarkReadLineClean(b *testing.B) {
	clock := &simtime.Clock{}
	c := New(physmem.MustNew(1<<20), clock)
	var line [physmem.GroupsPerLine]uint64
	c.WriteLine(0, line)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadLine(0)
	}
}

// BenchmarkWriteLine measures a line write-back with ECC on (encode, then
// one raw line store) and with ECC disabled (the WatchMemory scramble's
// data-only store).
func BenchmarkWriteLine(b *testing.B) {
	for _, mode := range []Mode{CorrectError, Disabled} {
		b.Run(mode.String(), func(b *testing.B) {
			clock := &simtime.Clock{}
			c := New(physmem.MustNew(1<<20), clock)
			c.SetMode(mode)
			var line [physmem.GroupsPerLine]uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line[i%physmem.GroupsPerLine] = uint64(i)
				c.WriteLine(physmem.Addr(i%1024)*physmem.LineBytes, line)
			}
		})
	}
}

func BenchmarkScrubPass(b *testing.B) {
	clock := &simtime.Clock{}
	c := New(physmem.MustNew(1<<20), clock)
	c.SetMode(CorrectAndScrub)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScrubStep(64)
	}
}

func TestModeStringsAndAccessors(t *testing.T) {
	names := map[Mode]string{
		Disabled:        "Disabled",
		CheckOnly:       "Check-Only",
		CorrectError:    "Correct-Error",
		CorrectAndScrub: "Correct-and-Scrub",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d -> %q, want %q", m, m.String(), want)
		}
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode has empty name")
	}
	c, _ := newTestController(4096)
	if c.Mode() != CorrectError {
		t.Errorf("default mode = %v", c.Mode())
	}
	c.SetMode(CheckOnly)
	if c.Mode() != CheckOnly {
		t.Error("Mode() does not track SetMode")
	}
}

func TestResetStats(t *testing.T) {
	c, _ := newTestController(4096)
	c.ReadLine(0)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatalf("stats after reset = %+v", c.Stats())
	}
}

func TestDirectCheckBitAccess(t *testing.T) {
	c, clock := newTestController(4096)
	if c.Capabilities().DirectECCAccess {
		t.Fatal("capability on by default")
	}
	c.EnableDirectECCAccess()
	if !c.Capabilities().DirectECCAccess {
		t.Fatal("capability not enabled")
	}
	var line [physmem.GroupsPerLine]uint64
	line[0] = 0x1234
	c.WriteLine(0, line)

	before := clock.Now()
	check := c.ReadCheckBits(0)
	if check != uint8(ecc.Encode(0x1234)) {
		t.Fatalf("check = %#x", check)
	}
	c.WriteCheckBits(0, check^0xff)
	if got := c.ReadCheckBits(0); got != check^0xff {
		t.Fatalf("written check = %#x", got)
	}
	// Data untouched by check-bit writes.
	if raw, _ := c.Memory().ReadGroupRaw(0); raw != 0x1234 {
		t.Fatalf("data = %#x", raw)
	}
	if clock.Now()-before != 3*simtime.CostDirectECCWrite {
		t.Fatalf("direct access cost = %v", clock.Now()-before)
	}
	// ReadCheckBits panics without the capability.
	c2, _ := newTestController(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("ReadCheckBits without capability did not panic")
		}
	}()
	c2.ReadCheckBits(0)
}

func TestPeekLineRawAndUnaligned(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	line[7] = 0xabc
	c.WriteLine(64, line)
	// Scramble; Peek must return raw bits without faulting.
	fired := false
	c.SetInterruptHandler(func(FaultReport) { fired = true })
	c.Memory().WriteGroupDataOnly(64, ecc.Scramble(0))
	got := c.PeekLine(64)
	if got[7] != 0xabc || got[0] != ecc.Scramble(0) {
		t.Fatalf("PeekLine = %v", got)
	}
	if fired {
		t.Fatal("PeekLine ran the ECC path")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned PeekLine did not panic")
		}
	}()
	c.PeekLine(65)
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	c, _ := newTestController(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock of unlocked bus did not panic")
		}
	}()
	c.UnlockBus()
}

func TestWriteLineUnalignedPanics(t *testing.T) {
	c, _ := newTestController(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteLine did not panic")
		}
	}()
	var line [physmem.GroupsPerLine]uint64
	c.WriteLine(32, line)
}
