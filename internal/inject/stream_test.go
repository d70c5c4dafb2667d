package inject

import (
	"math/rand"
	"runtime"
	"testing"

	"safemem/internal/machine"
)

// streamSeeds returns the differential test's seeds: the edge cases of the
// seed reduction (zero, negatives, multiples of 2³¹−1 and their
// neighbours, the int64 extremes) plus a spread of pseudo-random ones.
func streamSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 0x5eed, 7 ^ 0x5eed, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 3*int32max + 1, int32max - 1, -int32max + 1,
		1 << 31, -1 << 31, 1<<62 + 5, -1 << 63, 1<<63 - 1,
		int32max * int32max, -int32max * 12345,
	}
	x := uint64(0x9e3779b97f4a7c15)
	for len(seeds) < 1200 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seeds = append(seeds, int64(x))
		if len(seeds)%7 == 0 {
			seeds = append(seeds, int64(x%1000)*int32max)
		}
	}
	return seeds
}

// TestLazySourceMatchesMathRand is the stream contract: for every seed,
// lazySource emits exactly rand.NewSource's values, across the hand-over
// at draw rngTap and through rand.Rand's derived draws.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 10_000
	for _, seed := range streamSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		var got lazySource
		got.Seed(seed)
		for k := 0; k < draws; k++ {
			var w, g uint64
			if k%3 == 0 {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			} else {
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d draw %d: lazySource %#x, rand.NewSource %#x", seed, k, g, w)
			}
		}
	}
}

func TestLazySourceThroughRand(t *testing.T) {
	for _, seed := range streamSeeds()[:200] {
		want := rand.New(rand.NewSource(seed))
		var src lazySource
		src.Seed(seed)
		got := rand.New(&src)
		for k := 0; k < 2000; k++ {
			n := 1 + k%97
			if k%2 == 0 {
				n = 1<<40 + k
			}
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, k, n, g, w)
			}
			if w, g := want.Int63n(int64(n)*3+1), got.Int63n(int64(n)*3+1); w != g {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestLazySourceReseed checks Seed restarts the stream, also after the
// hand-over to the real source.
func TestLazySourceReseed(t *testing.T) {
	var s lazySource
	s.Seed(42)
	first := make([]uint64, 400)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(42)
	for i, w := range first {
		if g := s.Uint64(); g != w {
			t.Fatalf("reseeded draw %d = %#x, want %#x", i, g, w)
		}
	}
}

// TestLazySourceNoAllocs pins the saving: seeding and the first draws
// allocate nothing (rand.NewSource allocates its 607-word table).
func TestLazySourceNoAllocs(t *testing.T) {
	var s lazySource
	seed := int64(0)
	if avg := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
		for i := 0; i < 16; i++ {
			s.Uint64()
		}
	}); avg != 0 {
		t.Fatalf("seeding and 16 draws allocate %.1f objects, want 0", avg)
	}
}

// TestNewAllocatesNoSeedTable pins that inject.New no longer pays for the
// source's feedback table: its bytes per call stay below the table's size.
func TestNewAllocatesNoSeedTable(t *testing.T) {
	m := machine.MustNew(machine.Config{MemBytes: 1 << 20})
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		New(m, Config{Seed: int64(i)})
	}
	runtime.ReadMemStats(&after)
	const table = rngLen * 8
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= table {
		t.Fatalf("inject.New allocates %d bytes, want < %d (the seed table's size)", per, table)
	}
}
