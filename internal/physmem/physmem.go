// Package physmem models the physical DRAM of the simulated machine.
//
// Memory is organised the way the ECC memory controller sees it: 64-byte
// lines (the granularity of all main-memory traffic, Section 2.2.1), each
// made of eight 64-bit ECC groups, each group stored together with its 8 ECC
// check bits (Section 2.1). The package stores raw bits only; the encode/
// check policy — when check bits are regenerated, when errors are corrected
// or reported — belongs to package memctrl, mirroring the hardware split
// between DRAM modules and the chipset.
package physmem

import (
	"fmt"
	"math/bits"

	"safemem/internal/telemetry"
)

const (
	// LineBytes is the size of one cache line / memory-bus transfer.
	LineBytes = 64
	// GroupsPerLine is the number of 64-bit ECC groups per line.
	GroupsPerLine = LineBytes / 8
	// GroupBytes is the number of data bytes per ECC group.
	GroupBytes = 8
)

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// LineAddr returns the address of the line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineBytes - 1) }

// LineOffset returns a's byte offset within its line.
func (a Addr) LineOffset() uint64 { return uint64(a) & (LineBytes - 1) }

// GroupAddr returns the address of the ECC group containing a.
func (a Addr) GroupAddr() Addr { return a &^ (GroupBytes - 1) }

// GroupInLine returns the index (0..7) of a's ECC group within its line.
func (a Addr) GroupInLine() int { return int(a.LineOffset() / GroupBytes) }

// IsLineAligned reports whether a is aligned to a line boundary.
func (a Addr) IsLineAligned() bool { return a%LineBytes == 0 }

// group is one stored ECC group: 64 data bits plus 8 check bits.
type group struct {
	data  uint64
	check uint8
}

// Memory is the simulated DRAM. The zero value is unusable; create with New.
type Memory struct {
	groups []group
	size   uint64

	// onMutate, when set, observes every mutation of stored bits — raw
	// writes, data-only writes, and bit flips — with the line address of the
	// touched group. The memory controller hooks it to invalidate its
	// known-clean line bitmap, so no writer (fault injector, fault model,
	// VM swap, direct-ECC pokes) can corrupt a line behind the controller's
	// decode-skipping fast path.
	onMutate func(line Addr)

	// touched is a one-bit-per-line bitmap of lines whose stored bits have
	// ever been mutated. Images record only these lines, so an image of a
	// near-empty memory — the pristine image a recycled machine restores —
	// stays a handful of lines instead of the whole DRAM.
	touched []uint64

	// dirty is the since-last-capture counterpart of touched: CaptureImage
	// clears it, every mutation sets it, and RestoreImage walks it to
	// re-copy only the lines that actually diverged from the image —
	// O(dirty state) instead of O(memory). Invariant between capture and
	// restore: touched == image.touched | dirty.
	dirty []uint64

	// dirtySum summarises dirty one bit per word: a clear bit guarantees the
	// dirty word is zero, so RestoreImage finds the dirty lines without
	// scanning the whole bitmap (128 words for 32 MiB instead of 8,192).
	dirtySum []uint64

	// snapGen guards image validity: CaptureImage stamps the image with the
	// current generation and anything that breaks the dirty-tracking
	// invariant (capturing or restoring a different image) bumps it, forcing
	// the next RestoreImage onto the always-correct full path.
	snapGen uint64
}

// SetMutateHook installs fn as the mutation observer (nil clears it). There
// is a single slot: the owning memory controller. The hook must not itself
// write to the memory.
func (m *Memory) SetMutateHook(fn func(line Addr)) { m.onMutate = fn }

// noteMutate reports a mutation of the given line to the hook and records
// it in the touched, dirty and summary bitmaps.
func (m *Memory) noteMutate(line uint64) {
	wi := line >> 6
	m.touched[wi] |= 1 << (line & 63)
	m.dirty[wi] |= 1 << (line & 63)
	m.dirtySum[wi>>6] |= 1 << (wi & 63)
	if m.onMutate != nil {
		m.onMutate(Addr(line * LineBytes))
	}
}

// New allocates a simulated DRAM of the given size in bytes. The size must
// be a positive multiple of the line size.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%LineBytes != 0 {
		return nil, fmt.Errorf("physmem: size %d is not a positive multiple of %d", size, LineBytes)
	}
	words := (size/LineBytes + 63) / 64
	return &Memory{
		groups:   make([]group, size/GroupBytes),
		size:     size,
		touched:  make([]uint64, words),
		dirty:    make([]uint64, words),
		dirtySum: make([]uint64, (words+63)/64),
	}, nil
}

// MustNew is New, panicking on error. For tests and examples.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// RegisterTelemetry registers the DRAM geometry with the registry.
func (m *Memory) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterSource("physmem", func(emit func(string, float64)) {
		emit("size_bytes", float64(m.size))
		emit("lines", float64(m.Lines()))
	})
}

// Lines returns the number of 64-byte lines.
func (m *Memory) Lines() uint64 { return m.size / LineBytes }

// groupIndex panics on out-of-range or misaligned addresses; the simulator's
// own components are the only callers, so a violation is a simulator bug.
func (m *Memory) groupIndex(a Addr) uint64 {
	if uint64(a) >= m.size {
		panic(fmt.Sprintf("physmem: address %#x out of range (size %#x)", uint64(a), m.size))
	}
	if a%GroupBytes != 0 {
		panic(fmt.Sprintf("physmem: address %#x not group aligned", uint64(a)))
	}
	return uint64(a) / GroupBytes
}

// ReadGroupRaw returns the stored data word and check bits of the ECC group
// at a, without any ECC checking.
func (m *Memory) ReadGroupRaw(a Addr) (data uint64, check uint8) {
	g := m.groups[m.groupIndex(a)]
	return g.data, g.check
}

// WriteGroupRaw stores both the data word and the check bits of the group at
// a. This is the full-control path used by the controller and by the fault
// injector.
func (m *Memory) WriteGroupRaw(a Addr, data uint64, check uint8) {
	idx := m.groupIndex(a)
	m.groups[idx] = group{data: data, check: check}
	m.noteMutate(idx / GroupsPerLine)
}

// WriteGroupDataOnly stores the data word at a while leaving the stored
// check bits untouched. This models a write performed while the ECC engine
// is disabled — the heart of SafeMem's WatchMemory trick (Figure 2): the old
// check bits now mismatch the new data.
func (m *Memory) WriteGroupDataOnly(a Addr, data uint64) {
	idx := m.groupIndex(a)
	m.groups[idx].data = data
	m.noteMutate(idx / GroupsPerLine)
}

// lineGroups returns the eight stored groups of the line at a, panicking
// on a misaligned or out-of-range line address.
func (m *Memory) lineGroups(a Addr) (line uint64, gs []group) {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("physmem: address %#x not line aligned", uint64(a)))
	}
	gi := m.groupIndex(a)
	return gi / GroupsPerLine, m.groups[gi : gi+GroupsPerLine : gi+GroupsPerLine]
}

// WriteLineRaw stores the data words and check bits of all eight groups of
// the line at a. It is equivalent to eight WriteGroupRaw calls, but records
// the mutation — bitmaps and hook — once for the line.
func (m *Memory) WriteLineRaw(a Addr, data [GroupsPerLine]uint64, check [GroupsPerLine]uint8) {
	line, gs := m.lineGroups(a)
	for i := range gs {
		gs[i] = group{data: data[i], check: check[i]}
	}
	m.noteMutate(line)
}

// WriteLineDataOnly stores the data words of the line at a, leaving every
// group's check bits untouched: eight WriteGroupDataOnly calls with one
// mutation record.
func (m *Memory) WriteLineDataOnly(a Addr, data [GroupsPerLine]uint64) {
	line, gs := m.lineGroups(a)
	for i := range gs {
		gs[i].data = data[i]
	}
	m.noteMutate(line)
}

// FlipDataBit inverts one data bit of the group at a, leaving the check bits
// untouched. It models a hardware memory error (cosmic ray, failing cell).
func (m *Memory) FlipDataBit(a Addr, bit uint) {
	if bit >= 64 {
		panic("physmem: data bit out of range")
	}
	idx := m.groupIndex(a)
	m.groups[idx].data ^= 1 << bit
	m.noteMutate(idx / GroupsPerLine)
}

// Image is an immutable checkpoint of a Memory's stored bits, taken with
// CaptureImage. It records only the touched lines — for a freshly built
// machine's pristine image, that is no lines at all.
type Image struct {
	mem     *Memory
	gen     uint64
	touched []uint64
	lines   map[uint64]*[GroupsPerLine]group
}

// CaptureImage checkpoints the memory's current contents. It also resets
// the dirty-since-capture bitmap, so a later RestoreImage re-copies only
// lines mutated in between. The image belongs to this memory; restoring it
// elsewhere panics.
func (m *Memory) CaptureImage() *Image {
	img := &Image{
		mem:     m,
		touched: append([]uint64(nil), m.touched...),
		lines:   make(map[uint64]*[GroupsPerLine]group),
	}
	for wi, w := range m.touched {
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			w &^= 1 << b
			line := uint64(wi)<<6 + b
			saved := new([GroupsPerLine]group)
			copy(saved[:], m.groups[line*GroupsPerLine:(line+1)*GroupsPerLine])
			img.lines[line] = saved
		}
	}
	clear(m.dirty)
	clear(m.dirtySum)
	m.snapGen++
	img.gen = m.snapGen
	return img
}

// restoreLine puts one line back to its image content (or zero, when the
// image never held it) and fires the mutate hook, exactly as an explicit
// write would, so a controller's known-clean bitmap cannot go stale.
func (m *Memory) restoreLine(img *Image, line uint64) {
	gi := line * GroupsPerLine
	if saved, ok := img.lines[line]; ok {
		copy(m.groups[gi:gi+GroupsPerLine], saved[:])
	} else {
		for g := gi; g < gi+GroupsPerLine; g++ {
			m.groups[g] = group{}
		}
	}
	if m.onMutate != nil {
		m.onMutate(Addr(line * LineBytes))
	}
}

// RestoreImage puts the memory back into the captured state. When the
// image's dirty tracking is still valid (nothing but ordinary mutations
// happened since CaptureImage or the previous RestoreImage of this image),
// only the lines dirtied in between are re-copied; otherwise every line
// either side ever touched is restored — slower, never wrong. Afterwards
// the image is valid for the next O(dirty) restore. The mutate hook fires
// once per restored line.
func (m *Memory) RestoreImage(img *Image) {
	if img.mem != m {
		panic("physmem: RestoreImage with an image captured from a different memory")
	}
	if img.gen == m.snapGen {
		// Fast path: touched == img.touched | dirty, so restoring the dirty
		// lines and stripping their extra touched bits lands exactly on the
		// captured bitmaps. The summary names the dirty words that may be
		// non-zero, so the walk costs O(dirty lines + words holding one)
		// plus a scan of the summary, 1/4096 of the lines.
		for si, s := range m.dirtySum {
			if s == 0 {
				continue
			}
			m.dirtySum[si] = 0
			for s != 0 {
				sb := uint64(bits.TrailingZeros64(s))
				s &^= 1 << sb
				wi := uint64(si)<<6 + sb
				w := m.dirty[wi]
				for d := w; d != 0; {
					b := uint64(bits.TrailingZeros64(d))
					d &^= 1 << b
					m.restoreLine(img, wi<<6+b)
				}
				m.touched[wi] &^= w &^ img.touched[wi]
				m.dirty[wi] = 0
			}
		}
		return
	}
	// Full path: the bitmaps' provenance is unknown (a different image was
	// captured or restored since), so walk the union of both touched sets.
	for wi := range m.touched {
		w := m.touched[wi] | img.touched[wi]
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			w &^= 1 << b
			m.restoreLine(img, uint64(wi)<<6+b)
		}
		m.touched[wi] = img.touched[wi]
		m.dirty[wi] = 0
	}
	clear(m.dirtySum)
	m.snapGen++
	img.gen = m.snapGen
}

// FlipCheckBit inverts one stored check bit of the group at a.
func (m *Memory) FlipCheckBit(a Addr, bit uint) {
	if bit >= 8 {
		panic("physmem: check bit out of range")
	}
	idx := m.groupIndex(a)
	m.groups[idx].check ^= 1 << bit
	m.noteMutate(idx / GroupsPerLine)
}
