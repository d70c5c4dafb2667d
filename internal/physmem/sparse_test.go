package physmem_test

import (
	"testing"

	"safemem/internal/ecc"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
)

// chunkLines is the number of lines one 4 KiB chunk holds.
const chunkLines = 4096 / physmem.LineBytes

// TestNeverWrittenMemoryIsZeroCodewords pins the sparse storage's read
// contract: a group no mutation ever reached reads as zero data with zero
// check bits, and that pair is a valid codeword, so the controller decodes
// never-written DRAM clean.
func TestNeverWrittenMemoryIsZeroCodewords(t *testing.T) {
	if c := ecc.Encode(0); c != 0 {
		t.Fatalf("ecc.Encode(0) = %#x, want 0: an absent chunk would not be a valid codeword", c)
	}
	const size = 4 * chunkLines * physmem.LineBytes
	m := physmem.MustNew(size)
	// One written line in the second chunk; every other chunk stays absent.
	m.WriteGroupRaw(chunkLines*physmem.LineBytes+8, 0x1234, uint8(ecc.Encode(0x1234)))
	for a := physmem.Addr(0); uint64(a) < size; a += physmem.GroupBytes {
		if a.LineAddr() == chunkLines*physmem.LineBytes {
			continue
		}
		if d, c := m.ReadGroupRaw(a); d != 0 || c != 0 {
			t.Fatalf("never-written group %#x = %#x/%#x, want 0/0", uint64(a), d, c)
		}
	}

	ctrl := memctrl.New(m, &simtime.Clock{})
	ctrl.SetFastPath(false)
	for a := physmem.Addr(0); uint64(a) < size; a += physmem.LineBytes {
		words := ctrl.ReadLine(a)
		if a == chunkLines*physmem.LineBytes {
			continue
		}
		if words != ([physmem.GroupsPerLine]uint64{}) {
			t.Fatalf("line %#x decoded to %#x, want zeros", uint64(a), words)
		}
	}
	if st := ctrl.Stats(); st.CorrectedSingle != 0 || st.Uncorrectable != 0 {
		t.Fatalf("decoding never-written memory raised ECC events: %+v", st)
	}
	if got := m.ResidentBytes(); got != physmem.ChunkBytes {
		t.Fatalf("resident = %d bytes after reads, want one chunk (%d)", got, physmem.ChunkBytes)
	}
}

// TestReadsAllocateNothing pins that only mutations allocate chunks: raw
// reads of untouched memory, a full scrub pass and the image of a fresh
// memory allocate no host memory at all and leave the resident footprint
// where it was.
func TestReadsAllocateNothing(t *testing.T) {
	const size = 1 << 20
	m := physmem.MustNew(size)
	ctrl := memctrl.New(m, &simtime.Clock{})
	ctrl.SetMode(memctrl.CorrectAndScrub)

	var sink uint64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"ReadGroupRaw", func() {
			for a := physmem.Addr(0); a < size; a += 4096 {
				d, c := m.ReadGroupRaw(a)
				sink += d + uint64(c)
			}
		}},
		{"ScrubAll", ctrl.ScrubAll},
		{"CaptureImage", func() { _ = m.CaptureImage() }},
	} {
		if avg := testing.AllocsPerRun(5, tc.fn); avg != 0 {
			t.Errorf("%s over untouched memory allocates %.1f objects/run, want 0", tc.name, avg)
		}
		if got := m.ResidentBytes(); got != 0 {
			t.Errorf("%s left %d resident bytes, want 0", tc.name, got)
		}
	}
	if ctrl.Stats().ScrubbedLines == 0 {
		t.Fatal("scrub passes visited no lines")
	}
	_ = sink
}

// TestImageAcrossChunkBoundary captures lines on both sides of a chunk
// boundary and restores them through both restore paths: the O(dirty) one
// and the full one a second capture forces. Lines of a chunk first written
// after the capture must come back as zeros.
func TestImageAcrossChunkBoundary(t *testing.T) {
	const size = 4 * chunkLines * physmem.LineBytes
	lastOfFirst := physmem.Addr((chunkLines - 1) * physmem.LineBytes)
	firstOfSecond := physmem.Addr(chunkLines * physmem.LineBytes)
	freshChunk := physmem.Addr(3 * chunkLines * physmem.LineBytes)
	build := func() *physmem.Memory {
		m := physmem.MustNew(size)
		m.WriteLineRaw(lastOfFirst, [physmem.GroupsPerLine]uint64{1, 2, 3}, [physmem.GroupsPerLine]uint8{4, 5, 6})
		m.WriteGroupRaw(firstOfSecond+56, 0x77, 0x17)
		return m
	}
	ref, m := build(), build()
	img := m.CaptureImage()
	resident := m.ResidentBytes()

	mutate := func(round uint64) {
		m.WriteGroupRaw(lastOfFirst+8, round, uint8(round))
		m.FlipCheckBit(firstOfSecond+56, uint(round%8))
		m.WriteLineDataOnly(firstOfSecond+physmem.LineBytes, [physmem.GroupsPerLine]uint64{round})
		m.WriteGroupRaw(freshChunk, round, 1)
	}
	same := func(path string) {
		t.Helper()
		for a := physmem.Addr(0); a < size; a += physmem.GroupBytes {
			d, c := m.ReadGroupRaw(a)
			rd, rc := ref.ReadGroupRaw(a)
			if d != rd || c != rc {
				t.Fatalf("%s restore: group %#x = %#x/%#x, want %#x/%#x", path, uint64(a), d, c, rd, rc)
			}
		}
	}

	mutate(1)
	if got := m.ResidentBytes(); got != resident+physmem.ChunkBytes {
		t.Fatalf("resident = %d after writing a fresh chunk, want %d", got, resident+physmem.ChunkBytes)
	}
	m.RestoreImage(&img)
	same("O(dirty)")
	if got := m.ResidentBytes(); got != resident+physmem.ChunkBytes {
		t.Fatalf("restore changed the resident footprint to %d, want %d: chunks are kept", got, resident+physmem.ChunkBytes)
	}

	// A second capture invalidates img's dirty tracking: the next restore
	// of img walks both touched sets.
	mutate(2)
	_ = m.CaptureImage()
	mutate(3)
	m.RestoreImage(&img)
	same("full")

	mutate(4)
	m.RestoreImage(&img)
	same("O(dirty) after full")
}
