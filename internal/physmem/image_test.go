package physmem

import (
	"slices"
	"testing"
)

// summaryTestLines spans three summary words (4,096 lines each), the last
// one partial, and ends mid dirty word.
const summaryTestLines = 2*64*64 + 1413

// assertNoDirty checks the dirty bitmap and its summary are empty, as
// both CaptureImage and RestoreImage must leave them.
func assertNoDirty(t *testing.T, m *Memory) {
	t.Helper()
	for i, w := range m.dirty {
		if w != 0 {
			t.Fatalf("dirty word %d = %#x", i, w)
		}
	}
	for i, w := range m.dirtySum {
		if w != 0 {
			t.Fatalf("summary word %d = %#x", i, w)
		}
	}
}

// assertSameMemory compares every stored group and the touched bitmap of m
// against ref, and checks the dirty bitmap and its summary are empty.
func assertSameMemory(t *testing.T, m, ref *Memory) {
	t.Helper()
	for a := Addr(0); uint64(a) < m.Size(); a += GroupBytes {
		d, c := m.ReadGroupRaw(a)
		rd, rc := ref.ReadGroupRaw(a)
		if d != rd || c != rc {
			t.Fatalf("group %#x = %#x/%#x, want %#x/%#x", uint64(a), d, c, rd, rc)
		}
	}
	if !slices.Equal(m.touched, ref.touched) {
		t.Fatal("touched bitmap differs from the never-mutated memory")
	}
	assertNoDirty(t, m)
}

// fastRestore restores img and checks the mutate hook fired exactly once
// per dirty line.
func fastRestore(t *testing.T, m *Memory, img *Image, dirtyLines int) {
	t.Helper()
	calls := 0
	m.SetMutateHook(func(Addr) { calls++ })
	m.RestoreImage(img)
	m.SetMutateHook(nil)
	if calls != dirtyLines {
		t.Fatalf("restore fired the mutate hook %d times, want %d (dirty lines)", calls, dirtyLines)
	}
}

func TestRestoreImageDirtySummary(t *testing.T) {
	const size = summaryTestLines * LineBytes
	last := uint64(summaryTestLines - 1)
	// Both memories hold the same pre-capture content: two lines the image
	// records, one of them right after a summary-word boundary.
	build := func() *Memory {
		m := MustNew(size)
		m.WriteGroupRaw(7*LineBytes+8, 0x77, 0x17)
		m.WriteGroupRaw(4096*LineBytes, 0x4096, 0x96)
		return m
	}
	ref, m := build(), build()
	img := m.CaptureImage()

	// mutate dirties each line once or more and returns the distinct count.
	mutate := func(round uint64, lines ...uint64) int {
		for i, line := range lines {
			a := Addr(line * LineBytes)
			switch i % 3 {
			case 0:
				m.WriteGroupRaw(a+GroupBytes*Addr(i%GroupsPerLine), round<<32|line, uint8(i))
			case 1:
				m.FlipDataBit(a, uint(round+uint64(i))%64)
			case 2:
				m.WriteLineRaw(a, [GroupsPerLine]uint64{round, line, 3}, [GroupsPerLine]uint8{1, 2, 3})
			}
		}
		slices.Sort(lines)
		return len(slices.Compact(lines))
	}
	cases := [][]uint64{
		// The first dirty word (twice in it, plus an image line), the last
		// dirty word, and both sides of the first summary-word boundary.
		{0, 3, 3, 7, last, 4095, 4096},
		// Again, proving the first restore cleared the summary; plus both
		// sides of the second boundary and the last line twice.
		{1, 2*4096 - 1, 2 * 4096, last, last - 1, last},
	}
	for round, lines := range cases {
		n := mutate(uint64(round+1), slices.Clone(lines)...)
		fastRestore(t, m, &img, n)
		assertSameMemory(t, m, ref)
	}

	// A second capture invalidates img's dirty tracking, so the next restore
	// takes the full path; it must still land exactly, and leave img valid
	// for an exact fast-path restore after it.
	mutate(3, 5, 4097, last)
	m.CaptureImage()
	assertNoDirty(t, m)
	mutate(4, 6, 4098)
	m.RestoreImage(&img)
	assertSameMemory(t, m, ref)
	n := mutate(5, 0, 4095, 4096, last)
	fastRestore(t, m, &img, n)
	assertSameMemory(t, m, ref)
}

func TestWriteLineMatchesGroupWrites(t *testing.T) {
	const size = 64 * 64 * LineBytes * 2
	line := Addr(64*64*LineBytes - LineBytes) // last line of a summary word
	data := [GroupsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, 0xdeadbeefcafe}
	check := [GroupsPerLine]uint8{9, 8, 7, 6, 5, 4, 3, 2}

	for _, tc := range []struct {
		name  string
		line  func(m *Memory)
		group func(m *Memory, a Addr, i int)
	}{
		{"raw",
			func(m *Memory) { m.WriteLineRaw(line, data, check) },
			func(m *Memory, a Addr, i int) { m.WriteGroupRaw(a, data[i], check[i]) }},
		{"data-only",
			func(m *Memory) { m.WriteLineDataOnly(line, data) },
			func(m *Memory, a Addr, i int) { m.WriteGroupDataOnly(a, data[i]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lm, gm := MustNew(size), MustNew(size)
			// Stored check bits a data-only write must preserve.
			for _, m := range []*Memory{lm, gm} {
				for i := 0; i < GroupsPerLine; i++ {
					m.WriteGroupRaw(line+Addr(i*GroupBytes), 0, uint8(0xa0+i))
				}
				m.CaptureImage()
			}
			var hooked []Addr
			lm.SetMutateHook(func(a Addr) { hooked = append(hooked, a) })
			tc.line(lm)
			for i := 0; i < GroupsPerLine; i++ {
				tc.group(gm, line+Addr(i*GroupBytes), i)
			}
			if len(hooked) != 1 || hooked[0] != line {
				t.Fatalf("mutate hook calls = %#x, want exactly [%#x]", hooked, uint64(line))
			}
			for i := 0; i < GroupsPerLine; i++ {
				a := line + Addr(i*GroupBytes)
				d, c := lm.ReadGroupRaw(a)
				gd, gc := gm.ReadGroupRaw(a)
				if d != gd || c != gc {
					t.Fatalf("group %d = %#x/%#x, want %#x/%#x", i, d, c, gd, gc)
				}
			}
			if !slices.Equal(lm.touched, gm.touched) || !slices.Equal(lm.dirty, gm.dirty) ||
				!slices.Equal(lm.dirtySum, gm.dirtySum) {
				t.Fatal("touched/dirty/summary bitmaps differ from eight group writes")
			}
		})
	}

	m := MustNew(size)
	for _, a := range []Addr{8, LineBytes + 32, size, size + LineBytes} {
		for _, write := range []func(){
			func() { m.WriteLineRaw(a, data, check) },
			func() { m.WriteLineDataOnly(a, data) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("line write at %#x did not panic", uint64(a))
					}
				}()
				write()
			}()
		}
	}
}
