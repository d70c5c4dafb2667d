package vm

import (
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/simtime"
)

func newTLBSpace(t *testing.T) *AddressSpace {
	t.Helper()
	mem := physmem.MustNew(1 << 20)
	as := New(mem, &simtime.Clock{})
	if !as.tlbOn {
		t.Fatal("TLB not on by default")
	}
	return as
}

func TestTLBHitReturnsSameFrame(t *testing.T) {
	as := newTLBSpace(t)
	if err := as.Map(0x10000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	pa1, f := as.Translate(0x10008, false)
	if f != nil {
		t.Fatal(f)
	}
	pa2, f := as.Translate(0x10010, true)
	if f != nil {
		t.Fatal(f)
	}
	if pa2 != pa1+8 {
		t.Fatalf("TLB hit gave %#x, want %#x", uint64(pa2), uint64(pa1+8))
	}
	hits, misses, _ := as.TLBStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1, 1", hits, misses)
	}
}

func TestTLBInvalidateOnProtect(t *testing.T) {
	as := newTLBSpace(t)
	if err := as.Map(0x10000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Translate(0x10000, true); f != nil {
		t.Fatal(f)
	}
	if err := as.Protect(0x10000, 1, ProtRead); err != nil {
		t.Fatal(err)
	}
	// The cached rw entry must be gone: a write now prot-faults.
	if _, f := as.Translate(0x10000, true); f == nil || f.Kind != FaultProtection || f.Prot != ProtRead {
		t.Fatalf("stale TLB entry survived Protect: fault=%v", f)
	}
	// And a read still works.
	if _, f := as.Translate(0x10000, false); f != nil {
		t.Fatal(f)
	}
}

func TestTLBInvalidateOnUnmap(t *testing.T) {
	as := newTLBSpace(t)
	if err := as.Map(0x10000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Translate(0x10000, false); f != nil {
		t.Fatal(f)
	}
	if err := as.Unmap(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Translate(0x10000, false); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("stale TLB entry survived Unmap: fault=%v", f)
	}
}

func TestTLBInvalidateOnSwapAndMigrate(t *testing.T) {
	as := newTLBSpace(t)
	if err := as.Map(0x10000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Translate(0x10000, false); f != nil {
		t.Fatal(f)
	}
	oldFrame, _ := as.FrameOf(0x10000)
	if as.SwapOutLRU(1) != 1 {
		t.Fatal("nothing swapped out")
	}
	// The translate must go through swap-in, not the stale entry.
	pa, f := as.Translate(0x10000, false)
	if f != nil {
		t.Fatal(f)
	}
	frame, _ := as.FrameOf(0x10000)
	if pa != frame {
		t.Fatalf("post-swap translate = %#x, frame = %#x", uint64(pa), uint64(frame))
	}
	if s := as.Stats(); s.SwapsIn != 1 {
		t.Fatalf("SwapsIn = %d, want 1 (stale TLB hit skipped demand paging?)", s.SwapsIn)
	}
	_ = oldFrame

	// Frame migration must likewise kill the cached frame.
	if _, f := as.Translate(0x10000, false); f != nil { // refill TLB
		t.Fatal(f)
	}
	_, fresh, err := as.MigratePage(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	pa, f = as.Translate(0x10018, false)
	if f != nil {
		t.Fatal(f)
	}
	if pa != fresh+0x18 {
		t.Fatalf("post-migrate translate = %#x, want %#x", uint64(pa), uint64(fresh+0x18))
	}
}

func TestTLBDisable(t *testing.T) {
	as := newTLBSpace(t)
	if err := as.Map(0x10000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	as.SetTLB(false)
	for i := 0; i < 4; i++ {
		if _, f := as.Translate(0x10000, false); f != nil {
			t.Fatal(f)
		}
	}
	hits, misses, _ := as.TLBStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("disabled TLB counted hits=%d misses=%d", hits, misses)
	}
}

// TestTLBTransparent runs the same operation sequence with the TLB on and
// off and checks that simulated state — stats, clock, translated addresses,
// fault identities — is bit-identical. The broader cross-stack version of
// this is TestTLBEquivalence in internal/campaign.
func TestTLBTransparent(t *testing.T) {
	type outcome struct {
		addrs  []physmem.Addr
		faults []Fault
		stats  Stats
		cycles simtime.Cycles
	}
	run := func(tlbOn bool) outcome {
		clock := &simtime.Clock{}
		as := New(physmem.MustNew(1<<20), clock)
		as.SetTLB(tlbOn)
		var o outcome
		xlate := func(va VAddr, write bool) {
			pa, f := as.Translate(va, write)
			if f != nil {
				o.faults = append(o.faults, *f)
			} else {
				o.addrs = append(o.addrs, pa)
			}
		}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(as.Map(0x10000, 4, ProtRW))
		for pass := 0; pass < 3; pass++ {
			for va := VAddr(0x10000); va < 0x14000; va += 512 {
				xlate(va, pass%2 == 0)
			}
		}
		must(as.Protect(0x11000, 1, ProtRead))
		xlate(0x11000, true) // prot fault
		xlate(0x11000, false)
		must(as.Pin(0x12000))
		as.SwapOutLRU(2)
		xlate(0x10000, false)
		xlate(0x13000, true)
		must(as.Unpin(0x12000))
		_, _, err := as.MigratePage(0x10000)
		must(err)
		xlate(0x10040, false)
		must(as.Unmap(0x13000, 1))
		xlate(0x13000, false) // unmapped fault
		o.stats = as.Stats()
		o.cycles = clock.Now()
		return o
	}
	on, off := run(true), run(false)
	if on.stats != off.stats {
		t.Fatalf("stats diverge:\n on: %+v\noff: %+v", on.stats, off.stats)
	}
	if on.cycles != off.cycles {
		t.Fatalf("cycles diverge: on=%d off=%d", on.cycles, off.cycles)
	}
	if len(on.addrs) != len(off.addrs) || len(on.faults) != len(off.faults) {
		t.Fatalf("result counts diverge")
	}
	for i := range on.addrs {
		if on.addrs[i] != off.addrs[i] {
			t.Fatalf("addr %d diverges: on=%#x off=%#x", i, uint64(on.addrs[i]), uint64(off.addrs[i]))
		}
	}
	for i := range on.faults {
		if on.faults[i] != off.faults[i] {
			t.Fatalf("fault %d diverges: on=%+v off=%+v", i, on.faults[i], off.faults[i])
		}
	}
}
