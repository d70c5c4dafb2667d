// Package heap implements the simulated C heap: malloc/calloc/realloc/free
// over the machine's virtual address space, with a first-fit free list,
// coalescing, demand growth via the kernel's page-mapping calls, and the
// two knobs the paper's tools need:
//
//   - per-allocator alignment and per-buffer padding, so SafeMem can make
//     every buffer cache-line aligned with one guard line at each end
//     (Section 4), and the page-protection baseline can do the same at page
//     granularity (Section 6.3 / Table 4);
//   - allocation/deallocation hooks, the interposition point corresponding
//     to the paper's LD_PRELOAD wrapping of malloc/free (Section 3.2.1).
package heap

import (
	"fmt"
	"sort"

	"safemem/internal/machine"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// Cost-model charges for the allocator itself (glibc bookkeeping).
const (
	costMalloc simtime.Cycles = 80
	costFree   simtime.Cycles = 60
)

// Block describes one live allocation.
type Block struct {
	// Addr and Size are the user-visible pointer and requested size.
	Addr vm.VAddr
	Size uint64
	// RoundedSize is Size rounded up to the allocator's alignment unit.
	RoundedSize uint64
	// FullAddr and FullSize cover the entire extent consumed, including
	// alignment slack and guard padding.
	FullAddr vm.VAddr
	FullSize uint64
	// PadBytes is the guard padding at each end (0 when unpadded).
	PadBytes uint64
	// Site is the call-stack signature at allocation time.
	Site uint64
	// AllocTime is the simulated CPU time of the allocation.
	AllocTime simtime.Cycles
	// Seq is a monotonically increasing allocation number.
	Seq uint64
}

// PadBefore returns the address of the leading guard region (valid only
// when PadBytes > 0).
func (b *Block) PadBefore() vm.VAddr { return b.Addr - vm.VAddr(b.PadBytes) }

// PadAfter returns the address of the trailing guard region (valid only
// when PadBytes > 0).
func (b *Block) PadAfter() vm.VAddr { return b.Addr + vm.VAddr(b.RoundedSize) }

// Hook observes allocation events. Both methods run after the allocator's
// own bookkeeping; OnFree runs before the extent is returned to the free
// list.
type Hook interface {
	OnAlloc(b *Block)
	OnFree(b *Block)
}

// Options configures an Allocator.
type Options struct {
	// Base is the first virtual address of the arena. Default 0x1000000.
	Base vm.VAddr
	// Limit is the arena's maximum size in bytes. Default 32 MiB.
	Limit uint64
	// Align is the alignment of every user pointer and the rounding unit of
	// every user size. Must be a power of two ≥ 8. Default 8 (plain
	// malloc); SafeMem uses 64 (cache-line aligned, Section 4); the
	// page-protection baseline uses 4096.
	Align uint64
	// PadBytes inserts a guard region of this many bytes at each end of
	// every buffer. Must be 0 or a multiple of Align. SafeMem uses one
	// cache line (64); the page-protection baseline uses one page (4096).
	PadBytes uint64
}

// Stats counts allocator activity and the space accounting behind Table 4.
type Stats struct {
	Mallocs     uint64
	Frees       uint64
	Reallocs    uint64
	BytesLive   uint64 // user bytes currently allocated
	BytesPeak   uint64 // peak user bytes
	WasteLive   uint64 // non-user bytes currently consumed (align + padding)
	WastePeak   uint64
	TotalUser   uint64 // cumulative user bytes ever requested
	TotalWaste  uint64 // cumulative waste bytes ever consumed
	ArenaBytes  uint64 // pages mapped
	FailedAlloc uint64
}

// free extent (sorted by address, coalesced).
type extent struct {
	addr vm.VAddr
	size uint64
}

// Allocator is the simulated heap. Not safe for concurrent use.
type Allocator struct {
	m      *machine.Machine
	opts   Options
	brk    vm.VAddr // end of mapped arena
	free   []extent // sorted by addr
	blocks map[vm.VAddr]*Block
	hooks  []Hook
	seq    uint64
	stats  Stats
}

// New creates an allocator on machine m.
func New(m *machine.Machine, opts Options) (*Allocator, error) {
	if opts.Base == 0 {
		opts.Base = 0x1000000
	}
	if opts.Limit == 0 {
		opts.Limit = 32 << 20
	}
	if opts.Align == 0 {
		opts.Align = 8
	}
	if opts.Align < 8 || opts.Align&(opts.Align-1) != 0 {
		return nil, fmt.Errorf("heap: align %d is not a power of two ≥ 8", opts.Align)
	}
	if opts.Base.PageOffset() != 0 {
		return nil, fmt.Errorf("heap: base %#x not page aligned", uint64(opts.Base))
	}
	if opts.PadBytes%opts.Align != 0 {
		return nil, fmt.Errorf("heap: padding %d not a multiple of alignment %d", opts.PadBytes, opts.Align)
	}
	a := &Allocator{
		m:      m,
		opts:   opts,
		brk:    opts.Base,
		blocks: make(map[vm.VAddr]*Block),
	}
	m.Telemetry.RegisterSource("heap", func(emit func(string, float64)) {
		s := a.stats
		emit("mallocs", float64(s.Mallocs))
		emit("frees", float64(s.Frees))
		emit("reallocs", float64(s.Reallocs))
		emit("bytes_live", float64(s.BytesLive))
		emit("bytes_peak", float64(s.BytesPeak))
		emit("waste_live", float64(s.WasteLive))
		emit("waste_peak", float64(s.WastePeak))
		emit("total_user", float64(s.TotalUser))
		emit("total_waste", float64(s.TotalWaste))
		emit("arena_bytes", float64(s.ArenaBytes))
		emit("failed_alloc", float64(s.FailedAlloc))
	})
	return a, nil
}

// MustNew is New, panicking on error.
func MustNew(m *machine.Machine, opts Options) *Allocator {
	a, err := New(m, opts)
	if err != nil {
		panic(err)
	}
	return a
}

// AddHook registers an allocation hook.
func (a *Allocator) AddHook(h Hook) { a.hooks = append(a.hooks, h) }

// Options returns the allocator's configuration.
func (a *Allocator) Options() Options { return a.opts }

// Stats returns a copy of the counters.
func (a *Allocator) Stats() Stats { return a.stats }

// Live returns the number of live blocks.
func (a *Allocator) Live() int { return len(a.blocks) }

// LiveBlocks returns all live blocks sorted by address (for scanners).
func (a *Allocator) LiveBlocks() []*Block {
	out := make([]*Block, 0, len(a.blocks))
	for _, b := range a.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// BlockAt returns the live block whose user pointer is va.
func (a *Allocator) BlockAt(va vm.VAddr) (*Block, bool) {
	b, ok := a.blocks[va]
	return b, ok
}

// BlockContaining returns the live block whose user range contains va.
func (a *Allocator) BlockContaining(va vm.VAddr) (*Block, bool) {
	// Binary search over sorted addresses would need an index; the map scan
	// here is only used by tests and bug reporters, never on hot paths.
	for _, b := range a.blocks {
		if va >= b.Addr && va < b.Addr+vm.VAddr(b.Size) {
			return b, true
		}
	}
	return nil, false
}

func roundUp(n, unit uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + unit - 1) &^ (unit - 1)
}

// fullSize returns the total extent consumed by a request of size bytes.
func (a *Allocator) fullSize(size uint64) uint64 {
	return roundUp(size, a.opts.Align) + 2*a.opts.PadBytes
}

// grow extends the mapped arena so that the free list contains an extent of
// at least need bytes.
func (a *Allocator) grow(need uint64) error {
	pages := int((need + vm.PageBytes - 1) / vm.PageBytes)
	// Grow geometrically to amortise the syscall, like a real sbrk policy.
	if min := int(a.stats.ArenaBytes / (8 * vm.PageBytes)); pages < min {
		pages = min
	}
	if pages < 4 {
		pages = 4
	}
	newBytes := uint64(pages) * vm.PageBytes
	if uint64(a.brk-a.opts.Base)+newBytes > a.opts.Limit {
		return fmt.Errorf("heap: arena limit %d exceeded", a.opts.Limit)
	}
	if err := a.m.Kern.MapPages(a.brk, pages); err != nil {
		return err
	}
	a.insertFree(extent{addr: a.brk, size: newBytes})
	a.brk += vm.VAddr(newBytes)
	a.stats.ArenaBytes += newBytes
	return nil
}

// insertFree adds e to the sorted free list, coalescing with neighbours.
func (a *Allocator) insertFree(e extent) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > e.addr })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+vm.VAddr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+vm.VAddr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// carve takes need bytes from the first fitting free extent.
func (a *Allocator) carve(need uint64) (vm.VAddr, bool) {
	for i := range a.free {
		if a.free[i].size >= need {
			addr := a.free[i].addr
			if a.free[i].size == need {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].addr += vm.VAddr(need)
				a.free[i].size -= need
			}
			return addr, true
		}
	}
	return 0, false
}

// Malloc allocates size bytes and returns the user pointer.
func (a *Allocator) Malloc(size uint64) (vm.VAddr, error) {
	a.m.Clock.Advance(costMalloc)
	full := a.fullSize(size)
	addr, ok := a.carve(full)
	if !ok {
		if err := a.grow(full); err != nil {
			a.stats.FailedAlloc++
			return 0, err
		}
		addr, ok = a.carve(full)
		if !ok {
			a.stats.FailedAlloc++
			return 0, fmt.Errorf("heap: fragmentation prevented allocation of %d bytes", full)
		}
	}
	b := &Block{
		Addr:        addr + vm.VAddr(a.opts.PadBytes),
		Size:        size,
		RoundedSize: roundUp(size, a.opts.Align),
		FullAddr:    addr,
		FullSize:    full,
		PadBytes:    a.opts.PadBytes,
		Site:        a.m.Stack.Signature(),
		AllocTime:   a.m.Clock.Now(),
		Seq:         a.seq,
	}
	a.seq++
	a.blocks[b.Addr] = b
	a.stats.Mallocs++
	a.stats.BytesLive += size
	a.stats.TotalUser += size
	waste := full - size
	a.stats.WasteLive += waste
	a.stats.TotalWaste += waste
	if a.stats.BytesLive > a.stats.BytesPeak {
		a.stats.BytesPeak = a.stats.BytesLive
	}
	if a.stats.WasteLive > a.stats.WastePeak {
		a.stats.WastePeak = a.stats.WasteLive
	}
	for _, h := range a.hooks {
		h.OnAlloc(b)
	}
	return b.Addr, nil
}

// Calloc allocates n*size bytes of zeroed memory.
func (a *Allocator) Calloc(n, size uint64) (vm.VAddr, error) {
	total := n * size
	addr, err := a.Malloc(total)
	if err != nil {
		return 0, err
	}
	a.m.Memset(addr, 0, total)
	return addr, nil
}

// Free releases the block at va. Freeing an unknown pointer is reported as
// an error (the simulator's stand-in for heap corruption UB).
func (a *Allocator) Free(va vm.VAddr) error {
	a.m.Clock.Advance(costFree)
	b, ok := a.blocks[va]
	if !ok {
		return fmt.Errorf("heap: free of unknown pointer %#x", uint64(va))
	}
	for _, h := range a.hooks {
		h.OnFree(b)
	}
	delete(a.blocks, va)
	a.stats.Frees++
	a.stats.BytesLive -= b.Size
	a.stats.WasteLive -= b.FullSize - b.Size
	a.insertFree(extent{addr: b.FullAddr, size: b.FullSize})
	return nil
}

// Realloc resizes the block at va, moving it if necessary. A nil va acts as
// Malloc, matching C semantics.
func (a *Allocator) Realloc(va vm.VAddr, newSize uint64) (vm.VAddr, error) {
	if va == 0 {
		return a.Malloc(newSize)
	}
	old, ok := a.blocks[va]
	if !ok {
		return 0, fmt.Errorf("heap: realloc of unknown pointer %#x", uint64(va))
	}
	a.stats.Reallocs++
	newVA, err := a.Malloc(newSize)
	if err != nil {
		return 0, err
	}
	n := old.Size
	if newSize < n {
		n = newSize
	}
	a.m.Memcpy(newVA, va, n)
	if err := a.Free(va); err != nil {
		return 0, err
	}
	return newVA, nil
}

// ArenaRange returns the mapped arena [base, brk) for heap scanners.
func (a *Allocator) ArenaRange() (vm.VAddr, vm.VAddr) { return a.opts.Base, a.brk }
