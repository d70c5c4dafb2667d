package vm

import (
	"fmt"

	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// Page migration and frame retirement — the VM half of hardware-fault
// survivability. When a physical frame develops a sticky DRAM fault (a weak
// or stuck-at cell keeps tripping ECC), the kernel migrates the page to a
// healthy frame and quarantines the bad one so the allocator never hands it
// out again. Unlike swap, migration copies data *and* check bits verbatim
// (a DRAM-to-DRAM move), so SafeMem's scrambled watch lines survive the
// move — the kernel only has to re-point its physical-line bookkeeping.

// costMigratePage approximates a 4 KiB DRAM-to-DRAM copy (64 line reads and
// writes), far cheaper than the disk transfer swap pays.
const costMigratePage simtime.Cycles = 24_000

// MigratePage moves the page containing va onto a fresh physical frame,
// copying raw data and check bits verbatim, and returns the old and new
// frame base addresses. Pins, protection and LRU state carry over. The old
// frame goes back on the free list; use RetirePage when it must not.
func (as *AddressSpace) MigratePage(va VAddr) (old, fresh physmem.Addr, err error) {
	old, fresh, err = as.migrate(va)
	if err == nil {
		as.frames = append(as.frames, old)
	}
	return old, fresh, err
}

// RetirePage migrates the page containing va off its current frame and
// quarantines that frame permanently: it never returns to the free list.
// This is the kernel's response to a frame whose error history crossed the
// retirement threshold.
func (as *AddressSpace) RetirePage(va VAddr) (retired, fresh physmem.Addr, err error) {
	retired, fresh, err = as.migrate(va)
	if err == nil {
		as.retired[retired] = true
		as.stats.FramesRetired++
	}
	return retired, fresh, err
}

// migrate does the copy and remap shared by MigratePage and RetirePage.
func (as *AddressSpace) migrate(va VAddr) (old, fresh physmem.Addr, err error) {
	vpn := uint64(va) / PageBytes
	p := as.pages.Get(vpn)
	if p == nil {
		return 0, 0, fmt.Errorf("vm: migrate of unmapped page %#x", uint64(va.PageAddr()))
	}
	if !p.present {
		// A swapped-out page has no frame to leave; bring it in first so the
		// caller still ends up with the page on a fresh frame.
		if err := as.swapIn(vpn, p); err != nil {
			return 0, 0, err
		}
	}
	if len(as.frames) == 0 {
		if as.SwapOutLRU(1) == 0 {
			return 0, 0, fmt.Errorf("vm: no free frame to migrate page %#x", uint64(va.PageAddr()))
		}
	}
	sp := as.tr.Begin("vm", "migrate", telemetry.KV("page", vpn*PageBytes))
	defer sp.End()
	old = p.frame
	fresh = as.popFrame()
	// Write back the page's cached lines so the copy sees current data, and
	// purge stale lines a previous owner left under the fresh frame.
	as.flushFrame(old)
	as.flushFrame(fresh)
	// Raw copy: data and check bits move verbatim, so scrambled watch lines
	// stay scrambled and latent errors travel with the data (the kernel
	// repairs before it retires).
	for i := 0; i < PageBytes/physmem.GroupBytes; i++ {
		off := physmem.Addr(i * physmem.GroupBytes)
		data, check := as.mem.ReadGroupRaw(old + off)
		as.mem.WriteGroupRaw(fresh+off, data, check)
	}
	p.frame = fresh
	as.tlbInvalidate(vpn)
	as.stats.Migrations++
	as.clock.Advance(costMigratePage)
	return old, fresh, nil
}

// VPageOf returns the virtual page base currently mapped onto the frame at
// base address f, if any. The kernel uses it to go from a faulting physical
// frame back to the page it must retire. O(pages) — fine at simulator scale
// and only run on the (rare) retirement path.
func (as *AddressSpace) VPageOf(f physmem.Addr) (va VAddr, ok bool) {
	as.pages.Range(func(vpn uint64, slot **pte) bool {
		if p := *slot; p != nil && p.present && p.frame == f {
			va, ok = VAddr(vpn*PageBytes), true
		}
		return !ok
	})
	return va, ok
}

// Retired reports whether the frame at base address f has been quarantined.
func (as *AddressSpace) Retired(f physmem.Addr) bool { return as.retired[f] }

// RetiredFrames returns how many frames are quarantined.
func (as *AddressSpace) RetiredFrames() int { return len(as.retired) }
