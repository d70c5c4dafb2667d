// Package vm models the virtual-memory system of the simulated machine:
// a page table mapping 4 KiB virtual pages to physical frames, per-page
// protection bits (the substrate for the mprotect/page-protection baseline),
// page pinning, and an LRU swapper.
//
// Two properties of the paper's design live here:
//
//   - page protection is *page* granularity, so a page-protection watcher
//     pads and aligns to 4096-byte units — 64× coarser than a cache line,
//     which is the source of the Table 4 space-overhead gap;
//   - ECC protection is attached to *physical* memory, so swapping a watched
//     page breaks the watch (the swap file stores data, not check bits);
//     SafeMem pins watched pages (Section 2.2.2, "Dealing with Page
//     Swapping"), which this package implements and tests demonstrate.
package vm

import (
	"fmt"
	"sort"

	"safemem/internal/ecc"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

// encodeCheck computes fresh ECC check bits, as the memory controller does
// when the swap device's DMA writes a page back into DRAM.
func encodeCheck(w uint64) uint8 { return uint8(ecc.Encode(w)) }

// Flusher writes back and invalidates all cached lines of one physical
// frame. The kernel wires the CPU cache in here so paging stays coherent:
// frames are flushed before their contents move to or from the swap
// device and before a frame changes owners.
type Flusher interface {
	FlushFrame(frame physmem.Addr)
}

// PageBytes is the virtual-memory page size.
const PageBytes = 4096

// LinesPerPage is the number of cache lines per page.
const LinesPerPage = PageBytes / physmem.LineBytes

// VAddr is a virtual byte address in the simulated process.
type VAddr uint64

// PageAddr returns the page-aligned base of a.
func (a VAddr) PageAddr() VAddr { return a &^ (PageBytes - 1) }

// PageOffset returns a's offset within its page.
func (a VAddr) PageOffset() uint64 { return uint64(a) & (PageBytes - 1) }

// LineAddr returns the cache-line-aligned base of a.
func (a VAddr) LineAddr() VAddr { return a &^ (physmem.LineBytes - 1) }

// Prot is a page-protection bit set.
type Prot uint8

const (
	// ProtNone forbids all access.
	ProtNone Prot = 0
	// ProtRead allows loads.
	ProtRead Prot = 1 << iota
	// ProtWrite allows stores.
	ProtWrite
	// ProtRW allows both.
	ProtRW = ProtRead | ProtWrite
)

// String renders the protection like mprotect flags.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	default:
		return fmt.Sprintf("Prot(%d)", uint8(p))
	}
}

// FaultKind distinguishes translation failures.
type FaultKind int

const (
	// FaultUnmapped: no mapping exists for the page.
	FaultUnmapped FaultKind = iota
	// FaultProtection: the mapping exists but forbids this access.
	FaultProtection
	// FaultSwappedOut: the page is on the swap device.
	FaultSwappedOut
)

// Fault is a page fault.
type Fault struct {
	Addr  VAddr
	Write bool
	Kind  FaultKind
	Prot  Prot // the page's protection at fault time (FaultProtection only)
}

// Error implements error.
func (f *Fault) Error() string {
	kind := map[FaultKind]string{
		FaultUnmapped:   "unmapped",
		FaultProtection: "protection",
		FaultSwappedOut: "swapped-out",
	}[f.Kind]
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("vm: %s page fault on %s at %#x", kind, op, uint64(f.Addr))
}

// pte is one page-table entry.
type pte struct {
	frame   physmem.Addr // base physical address of the frame
	prot    Prot
	present bool // false when swapped out
	pins    int  // pin count; pinned pages are never swapped
	swapped []uint64
	touch   uint64 // LRU stamp
}

// tlbEntries is the size of the software TLB. Direct-mapped: vpn & tlbMask
// picks the slot. Power of two.
const (
	tlbEntries = 4096
	tlbMask    = tlbEntries - 1
)

// tlbEntry caches one successful translation: vpn → {frame, prot, page}.
// An entry is live iff gen matches the address space's current tlbGen and
// vpn matches the lookup; bumping tlbGen flushes the whole TLB in O(1).
type tlbEntry struct {
	gen   uint64
	vpn   uint64
	frame physmem.Addr
	prot  Prot
	p     *pte
}

// AddressSpace is one simulated process's virtual memory.
type AddressSpace struct {
	clock   *simtime.Clock
	mem     *physmem.Memory
	pages   map[uint64]*pte       // vpn -> pte
	frames  []physmem.Addr        // free frame list
	retired map[physmem.Addr]bool // quarantined frames, never reallocated
	tick    uint64
	flusher Flusher
	tr      *telemetry.Tracer

	// framesLow is the shortest the free list has been since framesImg was
	// captured or last restored. Pops only ever take the tail, so below
	// this mark the list still equals framesImg.frames, and RestoreImage
	// rewrites only the tail above it.
	framesLow int
	framesImg *Image

	// Software TLB: consulted by Translate before the pages map. Purely a
	// host-speed optimisation — it charges no simulated cycles and changes
	// no simulated state, so every counter in Stats is identical with the
	// TLB on or off (pinned by TestTLBEquivalence). Entries are
	// invalidated strictly on every event that can change a translation; see
	// the invalidation matrix in DESIGN.md §4.8.
	tlb       []tlbEntry
	tlbGen    uint64 // current generation; entries with gen != tlbGen are dead
	tlbOn     bool
	tlbHits   uint64 // host-side counters, deliberately outside Stats
	tlbMisses uint64
	tlbFlush  uint64

	// epoch counts translation mutations. It is bumped by exactly the events
	// that invalidate TLB entries (per-page or all), so a PageRef obtained
	// while Epoch() returned E is still valid as long as Epoch() == E. The
	// machine's batch lane uses this to keep page windows open across runs.
	epoch uint64

	// ptePool recycles page-table entries so steady-state map/unmap/restore
	// cycles allocate nothing (pinned by TestSnapshotPathNoAllocs). Reuse is
	// safe: every path that drops a pte (Unmap, RestoreImage) also
	// invalidates the TLB entry and bumps the epoch that guard cached *pte
	// pointers.
	ptePool []*pte

	stats Stats
}

// popFrame takes a frame off the free list, which must not be empty.
func (as *AddressSpace) popFrame() physmem.Addr {
	n := len(as.frames) - 1
	frame := as.frames[n]
	as.frames = as.frames[:n]
	as.framesLow = min(as.framesLow, n)
	return frame
}

// newPTE returns a zeroed pte, reusing a pooled one when available.
func (as *AddressSpace) newPTE() *pte {
	n := len(as.ptePool)
	if n == 0 {
		return &pte{}
	}
	p := as.ptePool[n-1]
	as.ptePool = as.ptePool[:n-1]
	*p = pte{}
	return p
}

// freePTE returns a dead pte to the pool. Callers must already have
// invalidated any TLB entry or PageRef that could reference it.
func (as *AddressSpace) freePTE(p *pte) { as.ptePool = append(as.ptePool, p) }

// SetTLB enables or disables the software TLB, flushing it on any change.
// New address spaces start with it on. It is a construction-time switch:
// CaptureImage does not record it, so a restore keeps whatever was set.
// machine.New is its only non-test caller (Config.Reference).
func (as *AddressSpace) SetTLB(on bool) {
	as.tlbOn = on
	as.tlbGen++
	as.tlbFlush++
}

// TLBStats returns the host-side TLB counters (hits, misses, flushes).
// These live outside Stats: they describe the simulator, not the simulated
// machine, and must not perturb goldens.
func (as *AddressSpace) TLBStats() (hits, misses, flushes uint64) {
	return as.tlbHits, as.tlbMisses, as.tlbFlush
}

// tlbInvalidate kills any cached translation for vpn.
func (as *AddressSpace) tlbInvalidate(vpn uint64) {
	as.epoch++
	e := &as.tlb[vpn&tlbMask]
	if e.vpn == vpn {
		e.gen = 0 // tlbGen starts at 1 and only grows, so 0 is never live
	}
}

// tlbFlushAll invalidates every entry in O(1) by bumping the generation.
func (as *AddressSpace) tlbFlushAll() {
	as.epoch++
	as.tlbGen++
	as.tlbFlush++
}

// Epoch returns the translation-mutation counter. Any cached PageRef
// obtained at an older epoch must be re-derived.
func (as *AddressSpace) Epoch() uint64 { return as.epoch }

// Stats counts VM activity.
type Stats struct {
	Maps        uint64
	Protects    uint64
	Pins        uint64
	Unpins      uint64
	SwapsOut    uint64
	SwapsIn     uint64
	Translates  uint64
	ProtFaults  uint64
	FramesInUse uint64
	// Migrations counts page moves to a fresh frame (retirements included);
	// FramesRetired counts frames quarantined for good.
	Migrations    uint64
	FramesRetired uint64
}

// New creates an address space backed by mem's frames.
func New(mem *physmem.Memory, clock *simtime.Clock) *AddressSpace {
	nframes := mem.Size() / PageBytes
	frames := make([]physmem.Addr, 0, nframes)
	// Hand out high frames first so physical and virtual addresses differ,
	// catching any accidental identity-mapping assumptions in callers.
	for i := int64(nframes) - 1; i >= 0; i-- {
		frames = append(frames, physmem.Addr(uint64(i)*PageBytes))
	}
	return &AddressSpace{
		clock:   clock,
		mem:     mem,
		pages:   make(map[uint64]*pte),
		frames:  frames,
		retired: make(map[physmem.Addr]bool),
		tlb:     make([]tlbEntry, tlbEntries),
		tlbGen:  1,
		tlbOn:   true,
	}
}

// SetFlusher wires the CPU cache (or any Flusher) into the paging paths.
func (as *AddressSpace) SetFlusher(f Flusher) { as.flusher = f }

// RegisterTelemetry registers the address space's counters with the
// registry and adopts its tracer for swap spans.
func (as *AddressSpace) RegisterTelemetry(reg *telemetry.Registry) {
	as.tr = reg.Tracer()
	reg.RegisterSource("vm", func(emit func(string, float64)) {
		s := as.Stats()
		emit("maps", float64(s.Maps))
		emit("protects", float64(s.Protects))
		emit("pins", float64(s.Pins))
		emit("unpins", float64(s.Unpins))
		emit("swaps_out", float64(s.SwapsOut))
		emit("swaps_in", float64(s.SwapsIn))
		emit("translates", float64(s.Translates))
		emit("prot_faults", float64(s.ProtFaults))
		emit("frames_in_use", float64(s.FramesInUse))
		emit("migrations", float64(s.Migrations))
		emit("frames_retired", float64(s.FramesRetired))
		// Host-side software-TLB behaviour (not part of simulated Stats).
		emit("tlb_hits", float64(as.tlbHits))
		emit("tlb_misses", float64(as.tlbMisses))
		emit("tlb_flushes", float64(as.tlbFlush))
	})
}

func (as *AddressSpace) flushFrame(frame physmem.Addr) {
	if as.flusher != nil {
		as.flusher.FlushFrame(frame)
	}
}

// Stats returns a copy of the counters.
func (as *AddressSpace) Stats() Stats {
	s := as.stats
	s.FramesInUse = uint64(len(as.pages))
	return s
}

// Map allocates frames for n pages starting at the page-aligned address va.
func (as *AddressSpace) Map(va VAddr, n int, prot Prot) error {
	if va.PageOffset() != 0 {
		return fmt.Errorf("vm: Map at non-page-aligned %#x", uint64(va))
	}
	if n <= 0 {
		return fmt.Errorf("vm: Map of %d pages", n)
	}
	vpn := uint64(va) / PageBytes
	for i := 0; i < n; i++ {
		if _, ok := as.pages[vpn+uint64(i)]; ok {
			return fmt.Errorf("vm: page %#x already mapped", (vpn+uint64(i))*PageBytes)
		}
	}
	if len(as.frames) < n {
		return fmt.Errorf("vm: out of physical frames (%d free, %d needed)", len(as.frames), n)
	}
	for i := 0; i < n; i++ {
		frame := as.popFrame()
		p := as.newPTE()
		p.frame, p.prot, p.present = frame, prot, true
		as.pages[vpn+uint64(i)] = p
		as.tlbInvalidate(vpn + uint64(i))
		as.clock.Advance(simtime.CostPageTableOp)
		as.stats.Maps++
	}
	return nil
}

// Unmap releases the mapping for n pages at va, returning frames to the
// free list. Pinned pages cannot be unmapped.
func (as *AddressSpace) Unmap(va VAddr, n int) error {
	if va.PageOffset() != 0 {
		return fmt.Errorf("vm: Unmap at non-page-aligned %#x", uint64(va))
	}
	vpn := uint64(va) / PageBytes
	for i := 0; i < n; i++ {
		p, ok := as.pages[vpn+uint64(i)]
		if !ok {
			return fmt.Errorf("vm: page %#x not mapped", (vpn+uint64(i))*PageBytes)
		}
		if p.pins > 0 {
			return fmt.Errorf("vm: page %#x is pinned", (vpn+uint64(i))*PageBytes)
		}
	}
	for i := 0; i < n; i++ {
		p := as.pages[vpn+uint64(i)]
		if p.present {
			// The frame is changing owners: purge its cached lines.
			as.flushFrame(p.frame)
			as.frames = append(as.frames, p.frame)
		}
		delete(as.pages, vpn+uint64(i))
		as.freePTE(p)
		as.tlbInvalidate(vpn + uint64(i))
		as.clock.Advance(simtime.CostPageTableOp)
	}
	return nil
}

// Protect changes the protection of the n pages starting at va.
func (as *AddressSpace) Protect(va VAddr, n int, prot Prot) error {
	if va.PageOffset() != 0 {
		return fmt.Errorf("vm: Protect at non-page-aligned %#x", uint64(va))
	}
	vpn := uint64(va) / PageBytes
	for i := 0; i < n; i++ {
		p, ok := as.pages[vpn+uint64(i)]
		if !ok {
			return fmt.Errorf("vm: page %#x not mapped", (vpn+uint64(i))*PageBytes)
		}
		p.prot = prot
		as.tlbInvalidate(vpn + uint64(i))
		as.clock.Advance(simtime.CostPageTableOp)
		as.stats.Protects++
	}
	return nil
}

// ProtOf returns the protection of the page containing va.
func (as *AddressSpace) ProtOf(va VAddr) (Prot, bool) {
	p, ok := as.pages[uint64(va)/PageBytes]
	if !ok {
		return ProtNone, false
	}
	return p.prot, true
}

// Pin increments the pin count of the page containing va, preventing
// swap-out. WatchMemory pins every page that holds a watched line.
func (as *AddressSpace) Pin(va VAddr) error {
	p, ok := as.pages[uint64(va)/PageBytes]
	if !ok {
		return fmt.Errorf("vm: Pin of unmapped page %#x", uint64(va.PageAddr()))
	}
	if !p.present {
		if err := as.swapIn(uint64(va)/PageBytes, p); err != nil {
			return err
		}
	}
	p.pins++
	as.tlbInvalidate(uint64(va) / PageBytes)
	as.stats.Pins++
	as.clock.Advance(simtime.CostPageTableOp)
	return nil
}

// Unpin decrements the pin count of the page containing va.
func (as *AddressSpace) Unpin(va VAddr) error {
	p, ok := as.pages[uint64(va)/PageBytes]
	if !ok {
		return fmt.Errorf("vm: Unpin of unmapped page %#x", uint64(va.PageAddr()))
	}
	if p.pins == 0 {
		return fmt.Errorf("vm: Unpin of unpinned page %#x", uint64(va.PageAddr()))
	}
	p.pins--
	as.tlbInvalidate(uint64(va) / PageBytes)
	as.stats.Unpins++
	as.clock.Advance(simtime.CostPageTableOp)
	return nil
}

// Pinned reports the pin count of the page containing va.
func (as *AddressSpace) Pinned(va VAddr) int {
	if p, ok := as.pages[uint64(va)/PageBytes]; ok {
		return p.pins
	}
	return 0
}

// Translate maps a virtual address to a physical one, enforcing protection.
// On a swapped-out page it transparently swaps the page back in (demand
// paging) and retries.
func (as *AddressSpace) Translate(va VAddr, write bool) (physmem.Addr, *Fault) {
	as.stats.Translates++
	vpn := uint64(va) / PageBytes
	if as.tlbOn {
		e := &as.tlb[vpn&tlbMask]
		if e.gen == as.tlbGen && e.vpn == vpn {
			// TLB hit: the entry is only ever live for a present page with
			// current prot/frame (strict invalidation), so the fast path is
			// exactly the slow path minus the map lookup and presence check.
			as.tlbHits++
			need := ProtRead
			if write {
				need = ProtWrite
			}
			if e.prot&need == 0 {
				as.stats.ProtFaults++
				as.clock.Advance(simtime.CostPageFault)
				return 0, &Fault{Addr: va, Write: write, Kind: FaultProtection, Prot: e.prot}
			}
			as.tick++
			e.p.touch = as.tick
			return e.frame + physmem.Addr(va.PageOffset()), nil
		}
		as.tlbMisses++
	}
	p, ok := as.pages[vpn]
	if !ok {
		return 0, &Fault{Addr: va, Write: write, Kind: FaultUnmapped}
	}
	if !p.present {
		if err := as.swapIn(vpn, p); err != nil {
			return 0, &Fault{Addr: va, Write: write, Kind: FaultSwappedOut}
		}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if p.prot&need == 0 {
		as.stats.ProtFaults++
		as.clock.Advance(simtime.CostPageFault)
		return 0, &Fault{Addr: va, Write: write, Kind: FaultProtection, Prot: p.prot}
	}
	if as.tlbOn {
		as.tlb[vpn&tlbMask] = tlbEntry{gen: as.tlbGen, vpn: vpn, frame: p.frame, prot: p.prot, p: p}
	}
	as.tick++
	p.touch = as.tick
	return p.frame + physmem.Addr(va.PageOffset()), nil
}

// PageRef caches one run-length translation for the batched access fast
// lane: every access inside the page window [Base, Base+PageBytes) can
// reuse Frame and Prot without re-walking the page table, with the
// per-access accounting settled in one TouchRun call at batch commit.
// A PageRef must be discarded whenever anything that could change a
// translation may have run — a page fault, kernel deferred work, or any
// clock wake hook — which the machine guarantees by resetting its run
// windows after every slow-path access (see DESIGN.md §4.10).
type PageRef struct {
	as    *AddressSpace
	p     *pte
	Frame physmem.Addr
	Prot  Prot
}

// TranslateRun resolves the page containing va for a batched access run.
// It returns ok=false — charging nothing and raising no fault — when the
// page is unmapped or swapped out, in which case the caller must fall back
// to the per-access slow path (whose Translate performs the demand swap-in
// or delivers the fault with exact single-access semantics). Protection is
// deliberately not checked here: the run may mix loads and stores, so the
// caller checks Prot per access and bails to the slow path on a violation.
func (as *AddressSpace) TranslateRun(va VAddr) (PageRef, bool) {
	vpn := uint64(va) / PageBytes
	if as.tlbOn {
		e := &as.tlb[vpn&tlbMask]
		if e.gen == as.tlbGen && e.vpn == vpn {
			as.tlbHits++
			return PageRef{as: as, p: e.p, Frame: e.frame, Prot: e.prot}, true
		}
		as.tlbMisses++
	}
	p, ok := as.pages[vpn]
	if !ok || !p.present {
		return PageRef{}, false
	}
	if as.tlbOn {
		as.tlb[vpn&tlbMask] = tlbEntry{gen: as.tlbGen, vpn: vpn, frame: p.frame, prot: p.prot, p: p}
	}
	return PageRef{as: as, p: p, Frame: p.frame, Prot: p.prot}, true
}

// TouchRun settles the translation accounting for n batched accesses
// resolved through r: the exact state n sequential hitting Translate calls
// would have left behind (Translates += n, the LRU tick advanced n times,
// the page's touch stamp set to the final tick). Host-side TLB counters
// record the single probe TranslateRun performed, not n synthetic hits —
// they describe what the simulator actually did.
func (r PageRef) TouchRun(n uint64) {
	as := r.as
	as.stats.Translates += n
	as.tick += n
	r.p.touch = as.tick
}

// costSwapPage approximates a 4 KiB disk transfer; the exact figure only
// matters in that swapping must be visibly expensive.
const costSwapPage simtime.Cycles = 200_000

// SwapOutLRU swaps out up to n of the least-recently-used, unpinned,
// present pages, returning how many were evicted. The swap device stores
// *data only* — check bits do not survive, which is why ECC watches break
// across swap unless the page is pinned.
func (as *AddressSpace) SwapOutLRU(n int) int {
	type cand struct {
		vpn   uint64
		touch uint64
	}
	var cands []cand
	for vpn, p := range as.pages {
		if p.present && p.pins == 0 {
			cands = append(cands, cand{vpn, p.touch})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].touch != cands[j].touch {
			return cands[i].touch < cands[j].touch
		}
		return cands[i].vpn < cands[j].vpn
	})
	done := 0
	for _, c := range cands {
		if done >= n {
			break
		}
		as.swapOut(c.vpn, as.pages[c.vpn])
		done++
	}
	return done
}

func (as *AddressSpace) swapOut(vpn uint64, p *pte) {
	sp := as.tr.Begin("vm", "swap-out", telemetry.KV("page", vpn*PageBytes))
	defer sp.End()
	// Write back and invalidate cached lines first: the swap device reads
	// DRAM, and the frame is about to change owners.
	as.flushFrame(p.frame)
	// Read raw data words from the frame (DMA to the swap device).
	words := make([]uint64, PageBytes/physmem.GroupBytes)
	for i := range words {
		words[i], _ = as.mem.ReadGroupRaw(p.frame + physmem.Addr(i*physmem.GroupBytes))
	}
	p.swapped = words
	p.present = false
	as.tlbInvalidate(vpn)
	as.frames = append(as.frames, p.frame)
	as.stats.SwapsOut++
	as.clock.Advance(costSwapPage)
}

func (as *AddressSpace) swapIn(vpn uint64, p *pte) error {
	sp := as.tr.Begin("vm", "swap-in", telemetry.KV("page", vpn*PageBytes))
	defer sp.End()
	if len(as.frames) == 0 {
		// Make room by evicting someone else.
		if as.SwapOutLRU(1) == 0 {
			return fmt.Errorf("vm: no evictable frames for swap-in of page %#x", vpn*PageBytes)
		}
	}
	frame := as.popFrame()
	// Drop any stale cached lines left by the frame's previous owner.
	as.flushFrame(frame)
	// Write data back through the normal (ECC-enabled) path: every group
	// gets *freshly encoded* check bits, so a scramble that was swapped out
	// comes back self-consistent — the watch is silently lost. This is the
	// hazard pinning exists to prevent.
	for i, w := range p.swapped {
		as.mem.WriteGroupRaw(frame+physmem.Addr(i*physmem.GroupBytes), w, encodeCheck(w))
	}
	p.swapped = nil
	p.frame = frame
	p.present = true
	as.tlbInvalidate(vpn)
	as.stats.SwapsIn++
	as.clock.Advance(costSwapPage)
	return nil
}

// Image is a checkpoint of an address space's simulated state: page table,
// free-frame list, retired set, LRU tick and counters. Captured with
// CaptureImage, restored with RestoreImage. The software TLB and its
// host-side counters are not part of the image — they are invisible to
// simulated semantics and a restore simply flushes them.
type Image struct {
	as      *AddressSpace
	pages   map[uint64]pte
	frames  []physmem.Addr
	retired []physmem.Addr
	tick    uint64
	stats   Stats
}

// CaptureImage checkpoints the address space.
func (as *AddressSpace) CaptureImage() *Image {
	img := &Image{
		as:     as,
		pages:  make(map[uint64]pte, len(as.pages)),
		frames: append([]physmem.Addr(nil), as.frames...),
		tick:   as.tick,
		stats:  as.stats,
	}
	for vpn, p := range as.pages {
		cp := *p
		cp.swapped = append([]uint64(nil), p.swapped...)
		img.pages[vpn] = cp
	}
	for f := range as.retired {
		img.retired = append(img.retired, f)
	}
	as.framesImg, as.framesLow = img, len(as.frames)
	return img
}

// RestoreImage puts the address space back into the captured state and
// flushes the TLB. Page contents live in physmem and are restored
// separately (physmem.RestoreImage); this restores the translations. For
// the empty page table of a pristine machine image, the restore allocates
// nothing and costs O(pages mapped since capture): of the free frame list,
// only the tail popped since then is rewritten.
func (as *AddressSpace) RestoreImage(img *Image) {
	if img.as != as {
		panic("vm: RestoreImage with an image captured from a different address space")
	}
	for _, p := range as.pages {
		as.freePTE(p)
	}
	clear(as.pages)
	for vpn, p := range img.pages {
		np := as.newPTE()
		*np = p
		np.swapped = append([]uint64(nil), p.swapped...)
		as.pages[vpn] = np
	}
	lo := 0
	if as.framesImg == img {
		lo = min(as.framesLow, len(img.frames))
	}
	as.frames = as.frames[:len(img.frames)]
	copy(as.frames[lo:], img.frames[lo:])
	as.framesImg, as.framesLow = img, len(img.frames)
	clear(as.retired)
	for _, f := range img.retired {
		as.retired[f] = true
	}
	as.tick = img.tick
	as.stats = img.stats
	as.tlbFlushAll()
}

// Present reports whether the page containing va is resident.
func (as *AddressSpace) Present(va VAddr) bool {
	p, ok := as.pages[uint64(va)/PageBytes]
	return ok && p.present
}

// FrameOf returns the physical frame of the page containing va, for tests.
func (as *AddressSpace) FrameOf(va VAddr) (physmem.Addr, bool) {
	p, ok := as.pages[uint64(va)/PageBytes]
	if !ok || !p.present {
		return 0, false
	}
	return p.frame, true
}

// FreeFrames returns the number of unallocated physical frames.
func (as *AddressSpace) FreeFrames() int { return len(as.frames) }
