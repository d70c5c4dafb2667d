// Package pageprot implements the page-protection baseline the paper
// compares ECC protection against (Sections 2.2.1 and 6.3): the same
// guard-the-pads / watch-freed-buffers strategy as SafeMem's corruption
// detector, but built on mprotect and SIGSEGV-style page faults instead of
// ECC watchpoints.
//
// Because protection is only available at page granularity, every buffer
// must be page aligned with one guard *page* (4096 bytes) per side instead
// of one cache line (64 bytes) — a 64× coarser unit. Table 4 quantifies the
// resulting memory waste; this package regenerates its page-protection
// column.
package pageprot

import (
	"fmt"

	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// BugKind classifies reports.
type BugKind int

const (
	// BugOverflow / BugUnderflow: access to a guard page.
	BugOverflow BugKind = iota
	BugUnderflow
	// BugFreedAccess: access to a freed, protected buffer.
	BugFreedAccess
)

// String names the kind.
func (k BugKind) String() string {
	switch k {
	case BugOverflow:
		return "buffer-overflow"
	case BugUnderflow:
		return "buffer-underflow"
	case BugFreedAccess:
		return "freed-memory-access"
	default:
		return fmt.Sprintf("BugKind(%d)", int(k))
	}
}

// Report is one finding.
type Report struct {
	Kind BugKind
	Time simtime.Cycles
	Addr vm.VAddr
	// BufferAddr/BufferSize identify the guarded buffer.
	BufferAddr vm.VAddr
	BufferSize uint64
	Site       uint64
	Write      bool
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("[%s] %s addr=%#x buffer=%#x size=%d site=%#x",
		r.Time, r.Kind, uint64(r.Addr), uint64(r.BufferAddr), r.BufferSize, r.Site)
}

// watch describes one protected page region.
type watch struct {
	base  vm.VAddr // page aligned
	pages int
	kind  BugKind
	// block is the buffer the region guards, copied: the allocator reuses
	// a freed block's storage.
	block heap.Block
}

// Stats counts tool activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	Protects    uint64
	Unprotects  uint64
	FaultsTaken uint64
	Reports     uint64
}

// Tool is an attached page-protection corruption detector. It implements
// heap.Hook and registers a kernel page-fault handler.
type Tool struct {
	m      *machine.Machine
	alloc  *heap.Allocator
	byPage map[vm.VAddr]*watch
	stats  Stats

	reports   []Report
	stopOnBug bool
}

// HeapOptions returns the allocator configuration this baseline requires:
// page-aligned buffers with one guard page per side.
func HeapOptions() heap.Options {
	return heap.Options{Align: vm.PageBytes, PadBytes: vm.PageBytes}
}

// Attach wires the tool onto machine m and allocator alloc, which must be
// configured via HeapOptions.
func Attach(m *machine.Machine, alloc *heap.Allocator, stopOnBug bool) (*Tool, error) {
	ho := alloc.Options()
	if ho.Align != vm.PageBytes || ho.PadBytes != vm.PageBytes {
		return nil, fmt.Errorf("pageprot: allocator must be page aligned with page padding (have align=%d pad=%d)", ho.Align, ho.PadBytes)
	}
	t := &Tool{
		m:         m,
		alloc:     alloc,
		byPage:    make(map[vm.VAddr]*watch),
		stopOnBug: stopOnBug,
	}
	alloc.AddHook(t)
	m.Kern.RegisterPageFaultHandler(t.handlePageFault)
	return t, nil
}

// Reports returns the findings so far.
func (t *Tool) Reports() []Report {
	out := make([]Report, len(t.reports))
	copy(out, t.reports)
	return out
}

// Stats returns a copy of the counters.
func (t *Tool) Stats() Stats { return t.stats }

func (t *Tool) protect(base vm.VAddr, pages int, kind BugKind, b *heap.Block) {
	if err := t.m.Kern.Mprotect(base, pages, vm.ProtNone); err != nil {
		panic(fmt.Sprintf("pageprot: mprotect: %v", err))
	}
	w := &watch{base: base, pages: pages, kind: kind, block: *b}
	for i := 0; i < pages; i++ {
		t.byPage[base+vm.VAddr(i*vm.PageBytes)] = w
	}
	t.stats.Protects++
}

func (t *Tool) unprotect(w *watch) {
	if err := t.m.Kern.Mprotect(w.base, w.pages, vm.ProtRW); err != nil {
		panic(fmt.Sprintf("pageprot: unprotect: %v", err))
	}
	for i := 0; i < w.pages; i++ {
		delete(t.byPage, w.base+vm.VAddr(i*vm.PageBytes))
	}
	t.stats.Unprotects++
}

// unprotectOverlapping removes watches intersecting [base, base+size).
func (t *Tool) unprotectOverlapping(base vm.VAddr, size uint64) {
	seen := map[*watch]bool{}
	for pg := base.PageAddr(); pg < base+vm.VAddr(size); pg += vm.PageBytes {
		if w, ok := t.byPage[pg]; ok && !seen[w] {
			seen[w] = true
			t.unprotect(w)
		}
	}
}

// OnAlloc implements heap.Hook: guard pages around the new buffer.
func (t *Tool) OnAlloc(b *heap.Block) {
	t.stats.Allocs++
	t.unprotectOverlapping(b.FullAddr, b.FullSize)
	t.protect(b.PadBefore(), 1, BugUnderflow, b)
	t.protect(b.PadAfter(), 1, BugOverflow, b)
}

// OnFree implements heap.Hook: protect the whole freed extent.
func (t *Tool) OnFree(b *heap.Block) {
	t.stats.Frees++
	t.unprotectOverlapping(b.FullAddr, b.FullSize)
	t.protect(b.FullAddr, int(b.FullSize/vm.PageBytes), BugFreedAccess, b)
}

// handlePageFault classifies a protection fault against the active watches,
// reports, unprotects the region, and retries the access.
func (t *Tool) handlePageFault(f *vm.Fault) bool {
	w, ok := t.byPage[f.Addr.PageAddr()]
	if !ok {
		return false // not ours: let the program crash
	}
	t.stats.FaultsTaken++
	t.stats.Reports++
	var rep Report
	rep.Kind = w.kind
	rep.Time = t.m.Clock.Now()
	rep.Addr = f.Addr
	rep.Write = f.Write
	rep.BufferAddr = w.block.Addr
	rep.BufferSize = w.block.Size
	rep.Site = w.block.Site
	t.reports = append(t.reports, rep)
	t.unprotect(w)
	if t.stopOnBug {
		machine.Abort("pageprot: %s at %#x", w.kind, uint64(f.Addr))
	}
	return true
}
