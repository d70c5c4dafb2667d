package vm

import (
	"reflect"
	"testing"

	"safemem/internal/physmem"
	"safemem/internal/simtime"
)

// pageTable returns a copy of every mapped pte by vpn.
func pageTable(as *AddressSpace) map[uint64]pte {
	out := map[uint64]pte{}
	as.pages.Range(func(vpn uint64, slot **pte) bool {
		if p := *slot; p != nil {
			out[vpn] = *p
		}
		return true
	})
	return out
}

// TestPageTableSparse pins the page table's host footprint: a fresh
// address space over 32 MiB of DRAM holds no leaf, and mapping one page
// allocates one.
func TestPageTableSparse(t *testing.T) {
	as := New(physmem.MustNew(32<<20), &simtime.Clock{})
	if n := as.pages.Leaves(); n != 0 {
		t.Fatalf("fresh address space holds %d page-table leaves, want 0", n)
	}
	if err := as.Map(0x1000000, 1, ProtRW); err != nil {
		t.Fatal(err)
	}
	if n := as.pages.Leaves(); n != 1 {
		t.Fatalf("one mapped page allocated %d page-table leaves, want 1", n)
	}
}

// TestMapBeyondAddressSpace checks that Map refuses pages the page table
// cannot index.
func TestMapBeyondAddressSpace(t *testing.T) {
	as, _ := newAS(4)
	if err := as.Map(MaxVAddr-PageBytes, 2, ProtRW); err == nil {
		t.Fatal("Map across the top of the address space succeeded")
	}
	if err := as.Map(MaxVAddr-PageBytes, 1, ProtRW); err != nil {
		t.Fatalf("Map of the top page: %v", err)
	}
}

// TestImageRoundTripPages round-trips an address space with mapped,
// swapped-out and pinned pages through CaptureImage and RestoreImage
// after churn that unmaps, remaps, swaps, unpins and reprotects: every pte
// (frame, protection, presence, pins, swapped data, LRU stamp), the
// mapped-page count and the counters come back.
func TestImageRoundTripPages(t *testing.T) {
	as, mem := newAS(8)
	if err := as.Map(0x10000, 4, ProtRW); err != nil {
		t.Fatal(err)
	}
	for i := VAddr(0); i < 4; i++ {
		pa, fault := as.Translate(0x10000+i*PageBytes, true)
		if fault != nil {
			t.Fatal(fault)
		}
		mem.WriteGroupRaw(pa, 0x100+uint64(i), 0)
	}
	if err := as.Pin(0x11000); err != nil {
		t.Fatal(err)
	}
	if n := as.SwapOutLRU(1); n != 1 {
		t.Fatalf("swapped out %d pages, want 1", n)
	}
	if err := as.Protect(0x13000, 1, ProtRead); err != nil {
		t.Fatal(err)
	}
	want, wantStats := pageTable(as), as.Stats()
	img := as.CaptureImage()

	if err := as.Unpin(0x11000); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x12000, 2); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x400000, 3, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, fault := as.Translate(0x10000, false); fault != nil {
		t.Fatal(fault)
	}
	as.SwapOutLRU(2)

	as.RestoreImage(img)
	if got := pageTable(as); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored page table\n%+v\nwant\n%+v", got, want)
	}
	if got := as.Stats(); got != wantStats {
		t.Fatalf("restored stats %+v, want %+v", got, wantStats)
	}
	if as.Pinned(0x11000) != 1 || as.Present(0x10000) {
		t.Fatal("restored pin or swap state is off")
	}
}
