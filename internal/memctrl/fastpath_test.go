package memctrl

import (
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
)

// TestFastPathServesCleanReads checks that controller-written lines are
// served by the known-clean bitmap and that the data is unchanged.
func TestFastPathServesCleanReads(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	for i := range line {
		line[i] = uint64(i) * 0x0123456789abcdef
	}
	c.WriteLine(256, line)
	for i := 0; i < 3; i++ {
		if got := c.ReadLine(256); got != line {
			t.Fatalf("read %d = %v, want %v", i, got, line)
		}
	}
	if n := c.FastLineReads(); n != 3 {
		t.Fatalf("FastLineReads = %d, want 3", n)
	}
	// A never-written line is not clean: the first read decodes, proves the
	// all-zero groups OK and marks it; the second is fast.
	c.ReadLine(512)
	if n := c.FastLineReads(); n != 3 {
		t.Fatalf("first read of unverified line took the fast path (%d)", n)
	}
	c.ReadLine(512)
	if n := c.FastLineReads(); n != 4 {
		t.Fatalf("verified line not served fast (FastLineReads = %d)", n)
	}
}

// TestFastPathDisabledModes checks the bitmap is bypassed when the fast path
// is switched off and in Disabled mode.
func TestFastPathDisabledModes(t *testing.T) {
	c, _ := newTestController(4096)
	var line [physmem.GroupsPerLine]uint64
	c.WriteLine(0, line)

	c.SetFastPath(false)
	c.ReadLine(0)
	if c.FastLineReads() != 0 {
		t.Fatal("fast path used while disabled")
	}
	c.SetFastPath(true)
	c.SetMode(Disabled)
	c.ReadLine(0)
	if c.FastLineReads() != 0 {
		t.Fatal("fast path used in Disabled mode")
	}
	c.SetMode(CorrectError)
	c.ReadLine(0)
	if c.FastLineReads() != 1 {
		t.Fatalf("fast path not restored (FastLineReads = %d)", c.FastLineReads())
	}
}

// TestFastPathInvalidation drives every stored-bit mutation route the
// simulator has — the WatchMemory scramble, an injected single-bit fault, a
// re-asserting stuck-at cell, and a direct-ECC check-bit poke — and checks
// each one drops the known-clean bit so detection fires on the very first
// access afterwards.
func TestFastPathInvalidation(t *testing.T) {
	const orig = uint64(0x5afe5afe5afe5afe)

	setup := func(t *testing.T) *Controller {
		c, _ := newTestController(4096)
		var line [physmem.GroupsPerLine]uint64
		line[0] = orig
		c.WriteLine(0, line)
		// Prove the line is being served fast before the mutation.
		c.ReadLine(0)
		if c.FastLineReads() != 1 {
			t.Fatal("line not on the fast path before mutation")
		}
		return c
	}

	t.Run("scramble", func(t *testing.T) {
		c := setup(t)
		c.Memory().WriteGroupDataOnly(0, ecc.Scramble(orig))
		c.SetInterruptHandler(func(r FaultReport) {
			c.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
		})
		got := c.ReadLine(0)
		if c.Stats().Uncorrectable != 1 {
			t.Fatalf("scrambled group not detected on first access: %+v", c.Stats())
		}
		if got[0] != orig {
			t.Fatalf("handler repair not picked up: %#x", got[0])
		}
		if c.FastLineReads() != 1 {
			t.Fatal("mutated line was served from the fast path")
		}
	})

	t.Run("disabled-writeline", func(t *testing.T) {
		// WatchMemory's scramble goes through WriteLine with ECC disabled:
		// the one line write must still drop the known-clean bit.
		c := setup(t)
		c.SetMode(Disabled)
		var line [physmem.GroupsPerLine]uint64
		line[0] = ecc.Scramble(orig)
		c.WriteLine(0, line)
		if c.lineClean(0) {
			t.Fatal("line written with ECC disabled is still known-clean")
		}
		c.SetMode(CorrectError)
		c.SetInterruptHandler(func(r FaultReport) {
			c.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
		})
		if got := c.ReadLine(0); got[0] != orig {
			t.Fatalf("handler repair not picked up: %#x", got[0])
		}
		if c.Stats().Uncorrectable != 1 || c.FastLineReads() != 1 {
			t.Fatalf("scrambled line hidden by the fast path: %+v, fast reads %d",
				c.Stats(), c.FastLineReads())
		}
	})

	t.Run("injected-fault", func(t *testing.T) {
		c := setup(t)
		c.Memory().FlipDataBit(0, 13)
		if got := c.ReadLine(0); got[0] != orig {
			t.Fatalf("injected bit not corrected: %#x", got[0])
		}
		if c.Stats().CorrectedSingle != 1 {
			t.Fatalf("injected fault not detected on first access: %+v", c.Stats())
		}
	})

	t.Run("stuck-at-cell", func(t *testing.T) {
		// A stuck-at cell re-asserts the same bit after every repair (the
		// fault model replants it through FlipDataBit); each re-assertion
		// must knock the line off the fast path again.
		c := setup(t)
		for round := uint64(1); round <= 3; round++ {
			c.Memory().FlipDataBit(0, 7) // cell re-asserts
			if got := c.ReadLine(0); got[0] != orig {
				t.Fatalf("round %d: not corrected: %#x", round, got[0])
			}
			if c.Stats().CorrectedSingle != round {
				t.Fatalf("round %d: re-asserted fault hidden by fast path: %+v", round, c.Stats())
			}
			// The correcting read repaired DRAM but could not mark the line
			// clean; this verify pass does, putting it back on the fast path.
			c.ReadLine(0)
		}
	})

	t.Run("check-bit-fault", func(t *testing.T) {
		c := setup(t)
		c.Memory().FlipCheckBit(0, 5)
		if got := c.ReadLine(0); got[0] != orig {
			t.Fatalf("data disturbed by check-bit fault: %#x", got[0])
		}
		if c.Stats().CorrectedSingle != 1 {
			t.Fatalf("check-bit fault not detected on first access: %+v", c.Stats())
		}
	})

	t.Run("direct-ecc-write", func(t *testing.T) {
		c := setup(t)
		c.EnableDirectECCAccess()
		// Arm a watchpoint the Section 2.2.3 way: invert the stored check
		// bits. The inversion differs in 8 bits — uncorrectable.
		c.WriteCheckBits(0, c.ReadCheckBits(0)^0xff)
		c.SetInterruptHandler(func(r FaultReport) {
			c.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
		})
		c.ReadLine(0)
		if c.Stats().Uncorrectable != 1 {
			t.Fatalf("direct-ECC poke not detected on first access: %+v", c.Stats())
		}
	})
}

// fastPathScenario drives one controller through every read/write/fault/
// scrub flavour the simulator exercises and returns a digest of all data the
// CPU observed. TestFastPathEquivalence runs it with the fast path on and
// off and requires identical stats, cycle charges and observed data.
func fastPathScenario(c *Controller, clock *simtime.Clock) (digest uint64) {
	mix := func(line [physmem.GroupsPerLine]uint64) {
		for _, w := range line {
			digest = digest*0x9e3779b97f4a7c15 + w
		}
	}
	const repaired = uint64(0x0ddba11c0ffee000)
	c.SetInterruptHandler(func(r FaultReport) {
		c.Memory().WriteGroupRaw(r.Group, repaired, uint8(ecc.Encode(repaired)))
	})

	// Clean traffic over several lines, re-read many times.
	for li := physmem.Addr(0); li < 8; li++ {
		var line [physmem.GroupsPerLine]uint64
		for i := range line {
			line[i] = uint64(li)<<32 | uint64(i)
		}
		c.WriteLine(li*physmem.LineBytes, line)
	}
	for pass := 0; pass < 4; pass++ {
		for li := physmem.Addr(0); li < 8; li++ {
			mix(c.ReadLine(li * physmem.LineBytes))
		}
	}

	// Single-bit data and check faults, read twice (correct, then clean).
	c.Memory().FlipDataBit(2*physmem.LineBytes, 33)
	c.Memory().FlipCheckBit(3*physmem.LineBytes+8, 2)
	mix(c.ReadLine(2 * physmem.LineBytes))
	mix(c.ReadLine(2 * physmem.LineBytes))
	mix(c.ReadLine(3 * physmem.LineBytes))
	mix(c.ReadLine(3 * physmem.LineBytes))

	// Scramble → uncorrectable → handler repair, then re-read.
	c.Memory().WriteGroupDataOnly(4*physmem.LineBytes, ecc.Scramble(4<<32))
	mix(c.ReadLine(4 * physmem.LineBytes))
	mix(c.ReadLine(4 * physmem.LineBytes))

	// CheckOnly leaves the error in DRAM: every read reports it again.
	c.SetMode(CheckOnly)
	c.Memory().FlipDataBit(5*physmem.LineBytes, 1)
	mix(c.ReadLine(5 * physmem.LineBytes))
	mix(c.ReadLine(5 * physmem.LineBytes))
	c.SetMode(CorrectError)
	mix(c.ReadLine(5 * physmem.LineBytes))

	// Disabled-mode write (stale check bits) and read-back.
	c.SetMode(Disabled)
	var scrambled [physmem.GroupsPerLine]uint64
	scrambled[0] = 0xbbbb
	c.WriteLine(6*physmem.LineBytes, scrambled)
	mix(c.ReadLine(6 * physmem.LineBytes))
	c.SetMode(CorrectError)
	mix(c.ReadLine(6 * physmem.LineBytes)) // detects, handler repairs

	// A scrub pass over everything, twice (second pass is all-clean).
	c.SetMode(CorrectAndScrub)
	c.Memory().FlipDataBit(7*physmem.LineBytes, 60)
	c.ScrubAll()
	c.ScrubAll()
	mix(c.ReadLine(7 * physmem.LineBytes))
	return digest
}

// TestFastPathEquivalence pins the fast path's contract: with the clean-line
// bitmap on or off, every stat, every cycle charge and every word the CPU
// reads are identical — the optimisation is wall-clock-only.
func TestFastPathEquivalence(t *testing.T) {
	run := func(fast bool) (Stats, simtime.Cycles, uint64, uint64) {
		c, clock := newTestController(4096)
		c.SetFastPath(fast)
		digest := fastPathScenario(c, clock)
		return c.Stats(), clock.Now(), digest, c.FastLineReads()
	}
	fastStats, fastCycles, fastDigest, fastReads := run(true)
	slowStats, slowCycles, slowDigest, slowReads := run(false)

	if fastStats != slowStats {
		t.Errorf("stats diverge:\n fast: %+v\n slow: %+v", fastStats, slowStats)
	}
	if fastCycles != slowCycles {
		t.Errorf("cycle charges diverge: fast %d, slow %d", fastCycles, slowCycles)
	}
	if fastDigest != slowDigest {
		t.Errorf("observed data diverges: fast %#x, slow %#x", fastDigest, slowDigest)
	}
	if slowReads != 0 {
		t.Errorf("disabled fast path served %d reads", slowReads)
	}
	if fastReads == 0 {
		t.Error("scenario never exercised the fast path")
	}
}
