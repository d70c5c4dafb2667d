package cache

import (
	"testing"

	"safemem/internal/physmem"
)

// hinted returns the way line's hint names.
func hinted(c *Cache, line physmem.Addr) *way {
	hi := uint64(line) >> lineShift & c.hintMask
	return &c.ways[c.setIndex(line)*c.cfg.Ways+int(c.hint[hi])]
}

// agreeWithTags checks, line by line over the first lines (probed first,
// while their sets' hints are still stale) and then over the rig's first
// 2 KiB, that OpenLine and a one-line Lines stretch give the tag scan's
// answer: resident or not, and the same way.
func agreeWithTags(t *testing.T, c *Cache, step string, first ...physmem.Addr) {
	t.Helper()
	lines := first
	for l := physmem.Addr(0); l < 2048; l += physmem.LineBytes {
		lines = append(lines, l)
	}
	for _, l := range lines {
		want := c.findIdx(l)
		ref, ok := c.OpenLine(l)
		if ok != (want >= 0) || ok && ref.w != &c.ways[want] {
			t.Errorf("%s: OpenLine(%#x) = way %p, %v; the tags say way %d", step, uint64(l), ref.w, ok, want)
		}
		j, last := c.Lines(l, ScanWordLines, 1, nil, nil, 0, 0)
		if (j == 1) != (want >= 0) || j == 1 && last.w != &c.ways[want] {
			t.Errorf("%s: Lines(%#x) served %d lines, last way %p; the tags say way %d", step, uint64(l), j, last.w, want)
		}
	}
}

// TestLinesHintNeverChangesAnAnswer pins that the way hint of Cache.Lines
// is only a guess: after every mutation that can leave it
// naming a way that no longer holds its line — a flush of the line, of its
// frame or of the whole cache, a fill of another line into the hinted
// way, and restores of a non-pristine and a pristine image (whose zeroed
// ways hold line 0 at generation 0) — Lines and OpenLine agree with the
// tag scan. Each step first checks that the hint is stale as intended.
func TestLinesHintNeverChangesAnAnswer(t *testing.T) {
	// A, B and C share set 0 of a 4-set, 2-way cache, and A and C a hint.
	const A, B, C = physmem.Addr(0), physmem.Addr(256), physmem.Addr(512)
	c, _, _ := newRig(1<<16, Config{Sets: 4, Ways: 2})
	warm := func(lines ...physmem.Addr) {
		t.Helper()
		for _, l := range lines {
			if j, _ := c.Lines(l, ScanWordLines, 1, nil, nil, 0, 0); j != 1 {
				t.Fatalf("line %#x not resident", uint64(l))
			}
		}
	}
	stale := func(step string, line, holds physmem.Addr, valid bool) {
		t.Helper()
		if w := hinted(c, line); w.line != holds || (w.gen == c.gen) != valid {
			t.Fatalf("%s: line %#x's hint names a way holding %#x (valid %v), want %#x (valid %v)",
				step, uint64(line), uint64(w.line), w.gen == c.gen, uint64(holds), valid)
		}
	}

	c.LoadWord(A)
	c.LoadWord(B)
	warm(A)
	c.FlushLine(A)
	stale("FlushLine", A, A, false)
	agreeWithTags(t, c, "FlushLine", A)

	c.LoadWord(A)
	warm(A)
	c.FlushFrame(0)
	stale("FlushFrame", A, A, false)
	agreeWithTags(t, c, "FlushFrame", A, B)

	c.LoadWord(A)
	c.LoadWord(B)
	warm(B)
	c.FlushAll()
	stale("FlushAll", B, B, false)
	agreeWithTags(t, c, "FlushAll", B, A)

	// C's fill evicts A, the set's LRU line, from the hinted way.
	c.LoadWord(A)
	c.LoadWord(B)
	warm(A)
	c.LoadWord(B)
	c.LoadWord(C)
	stale("fill", A, C, true)
	agreeWithTags(t, c, "fill", A, C, B)

	// The image holds B and C; A's fill evicts B, and the restore puts B
	// back into the way A's hint names.
	img := c.CaptureImage()
	warm(C)
	c.LoadWord(A)
	warm(A)
	c.RestoreImage(img)
	stale("RestoreImage", A, B, true)
	agreeWithTags(t, c, "RestoreImage", A, B, C)

	// A pristine image: the fill-log restore, then the full one (an image
	// the log did not start from).
	c, _, _ = newRig(1<<16, Config{Sets: 4, Ways: 2})
	pristine := c.CaptureImage()
	c.LoadWord(A)
	c.LoadWord(B)
	warm(A)
	c.RestoreImage(pristine)
	stale("pristine RestoreImage", A, 0, false)
	agreeWithTags(t, c, "pristine RestoreImage", A, B)

	c.CaptureImage()
	c.LoadWord(B)
	c.LoadWord(A)
	warm(A)
	c.RestoreImage(pristine)
	stale("pristine RestoreImage, full", A, 0, false)
	agreeWithTags(t, c, "pristine RestoreImage, full", A, B)
}
