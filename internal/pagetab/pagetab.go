// Package pagetab is a two-level table indexed by a dense page or frame
// number: a directory of fixed-size leaves, each allocated on the first
// store into its range. It replaces Go maps on the simulator's hot paths
// (the page table, the kernel's watch index, SafeMem's line index, the
// injector's pending plants), where the key is a page or frame number that
// a lookup can split into a directory slot and a leaf offset: no hashing,
// no rehash growth, and a cleared table keeps its leaves for the next run.
//
// An entry of a leaf that was never allocated reads as the zero value, so
// a table that has only been read holds no leaves at all.
package pagetab

// leafBits is the log2 of a leaf's entry count: 512 entries, so one leaf
// of a page-indexed table spans 2 MiB of address space.
const leafBits = 9

// LeafLen is the number of entries in one leaf.
const LeafLen = 1 << leafBits

// MaxIndex bounds the indexes a table accepts for stores: with 4 KiB pages
// it spans a 40-bit (1 TiB) address space, and the directory then stays
// under 4 MiB however high the largest index is.
const MaxIndex = 1 << 28

// Table maps indexes in [0, MaxIndex) to values of type T. The zero Table
// is empty and ready to use. Not safe for concurrent use.
type Table[T any] struct {
	dir    []*[LeafLen]T
	leaves int
}

// At returns a pointer to entry i, or nil when i's leaf was never
// allocated (every entry there reads as the zero T). The pointer stays
// valid for the table's lifetime: leaves are never freed.
func (t *Table[T]) At(i uint64) *T {
	if d := i >> leafBits; d < uint64(len(t.dir)) {
		if l := t.dir[d]; l != nil {
			return &l[i&(LeafLen-1)]
		}
	}
	return nil
}

// Get returns entry i, the zero T when its leaf was never allocated.
func (t *Table[T]) Get(i uint64) T {
	if p := t.At(i); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Slot returns a pointer to entry i, allocating its leaf on first use. It
// panics when i is not below MaxIndex.
func (t *Table[T]) Slot(i uint64) *T {
	if p := t.At(i); p != nil {
		return p
	}
	return t.alloc(i)
}

// alloc allocates the leaf of entry i, growing the directory to reach it,
// and returns a pointer to the entry. It is kept out of line so that Slot,
// inlined at its callers, carries only the lookup.
//
//go:noinline
func (t *Table[T]) alloc(i uint64) *T {
	if i >= MaxIndex {
		panic("pagetab: index beyond MaxIndex")
	}
	d := int(i >> leafBits)
	if d >= len(t.dir) {
		t.dir = append(t.dir, make([]*[LeafLen]T, d+1-len(t.dir))...)
	}
	l := new([LeafLen]T)
	t.dir[d] = l
	t.leaves++
	return &l[i&(LeafLen-1)]
}

// Clear zeroes every entry and keeps the leaves for reuse.
func (t *Table[T]) Clear() {
	for _, l := range t.dir {
		if l != nil {
			clear(l[:])
		}
	}
}

// Leaves returns the number of allocated leaves.
func (t *Table[T]) Leaves() int { return t.leaves }

// Range calls fn for every entry of every allocated leaf, in index order,
// until fn returns false. Entries of absent leaves are skipped: they are
// all zero.
func (t *Table[T]) Range(fn func(i uint64, v *T) bool) {
	for d, l := range t.dir {
		if l == nil {
			continue
		}
		for j := range l {
			if !fn(uint64(d)<<leafBits|uint64(j), &l[j]) {
				return
			}
		}
	}
}
