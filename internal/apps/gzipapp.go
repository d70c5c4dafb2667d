// The gzip workload: an LZ77 compressor working entirely in simulated
// memory — input buffer, hash-chain match finder, and output buffer, like
// the real deflate inner loop. It is the access-dominated extreme of the
// evaluation: millions of byte-granularity loads and stores with almost no
// allocation, which is where per-access instrumentation (Purify) hurts the
// most and allocation-time instrumentation (SafeMem) costs the least.
//
// The bug is a heap buffer overflow: the per-file trailer record is sized
// for a 100-character path, and a crafted input (Buggy=true) carries a
// longer one whose copy runs past the end of the record into SafeMem's
// guard line.
package apps

import (
	"math/rand"

	"safemem/internal/machine"
	"safemem/internal/vm"
)

const (
	gzSiteMain    = 0x404000
	gzSiteInit    = 0x404040
	gzSiteFile    = 0x404080
	gzSiteDeflate = 0x4040c0
	gzSiteTrailer = 0x404100 // the overflowed record
)

var gzipApp = &App{
	Name:        "gzip",
	Description: "a compression utility",
	PaperLOC:    8900,
	Class:       ClassOverflow,
	Run:         runGzip,
}

const (
	gzFiles      = 8
	gzFileBytes  = 16 << 10
	gzWindowBits = 12 // 4096-entry hash head table
	gzNameMax    = 100
)

type gzipState struct {
	e   *Env
	m   *machine.Machine
	rng *rand.Rand

	input  vm.VAddr // gzFileBytes input buffer (reused per file)
	output vm.VAddr // output buffer (reused per file)
	heads  vm.VAddr // hash-head table: position of last occurrence
	prevs  vm.VAddr // chain links by position
}

func runGzip(e *Env, cfg Config) error {
	m := e.M
	defer enter(m, gzSiteMain)()
	s := &gzipState{e: e, m: m, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x1f8b0808))}

	func() {
		defer enter(m, gzSiteInit)()
		s.input = mustMalloc(e, gzFileBytes)
		s.output = mustMalloc(e, gzFileBytes+gzFileBytes/8)
		s.heads = mustMalloc(e, (1<<gzWindowBits)*8)
		s.prevs = mustMalloc(e, gzFileBytes*8)
		e.Root(s.input)
		e.Root(s.output)
		e.Root(s.heads)
		e.Root(s.prevs)
	}()

	files := gzFiles * cfg.scale()
	for f := 0; f < files; f++ {
		s.compressFile(f, cfg.Buggy && f == files-1)
	}
	return nil
}

// compressFile generates one input file, deflates it, and writes the
// per-file trailer record.
func (s *gzipState) compressFile(f int, buggy bool) {
	m := s.m
	defer enter(m, gzSiteFile)()

	s.generateInput(f)
	outLen := s.deflate()
	_ = checksum(m, s.output, outLen&^7) // crc of the emitted stream
	s.writeTrailer(f, outLen, buggy)
}

// generateInput fills the input buffer with compressible text-like data:
// random letters among copies of a phrase. The file is built on the host
// first and stored with one byte run — the same bytes, stored in the same
// order, as storing each letter and phrase as it is drawn.
func (s *gzipState) generateInput(f int) {
	m := s.m
	const phrase = "the quick brown fox jumps over the lazy dog "
	var buf [gzFileBytes]byte
	for pos := 0; pos < gzFileBytes; {
		if s.rng.Intn(4) == 0 {
			buf[pos] = byte('a' + s.rng.Intn(26))
			pos++
			continue
		}
		pos += copy(buf[pos:], phrase)
	}
	m.StoreByteRun(s.input, buf[:])
	// Reset the match-finder state.
	m.Memset(s.heads, 0xff, (1<<gzWindowBits)*8)
}

// deflate runs the LZ77 inner loop: hash three bytes, probe the chain for
// the longest match, emit a literal or a (distance, length) pair.
func (s *gzipState) deflate() uint64 {
	m := s.m
	defer enter(m, gzSiteDeflate)()

	var out uint64
	emit := func(b byte) {
		m.Store8(s.output+vm.VAddr(out), b)
		out++
	}

	pos := 0
	for pos+3 <= gzFileBytes {
		h := s.hash3(pos)
		cand := int64(m.Load64(s.heads + vm.VAddr(h*8)))
		bestLen, bestDist := 0, 0
		for probe := 0; probe < 8 && cand >= 0 && pos-int(cand) < 4096; probe++ {
			l := s.matchLen(int(cand), pos)
			if l > bestLen {
				bestLen, bestDist = l, pos-int(cand)
			}
			cand = int64(m.Load64(s.prevs + vm.VAddr(cand*8)))
		}
		// Insert current position into the chain.
		m.Store64(s.prevs+vm.VAddr(pos*8), m.Load64(s.heads+vm.VAddr(h*8)))
		m.Store64(s.heads+vm.VAddr(h*8), uint64(pos))

		if bestLen >= 4 {
			tok := [3]byte{0x80 | byte(bestLen), byte(bestDist), byte(bestDist >> 8)}
			m.StoreByteRun(s.output+vm.VAddr(out), tok[:])
			out += 3
			pos += bestLen
		} else {
			emit(m.Load8(s.input + vm.VAddr(pos)))
			pos++
		}
	}
	for ; pos < gzFileBytes; pos++ {
		emit(m.Load8(s.input + vm.VAddr(pos)))
	}
	return out
}

func (s *gzipState) hash3(pos int) uint64 {
	var b [3]byte
	s.m.LoadByteRun(s.input+vm.VAddr(pos), b[:])
	return (uint64(b[0])<<10 ^ uint64(b[1])<<5 ^ uint64(b[2])) & (1<<gzWindowBits - 1)
}

// matchLen counts matching bytes between positions cand and pos, capped at
// 127 so the length always fits the token's 7-bit field. CompareRun loads
// the same interleaved byte pairs (cand+n then pos+n, both bytes of the
// first mismatching pair included) the open-coded loop did.
func (s *gzipState) matchLen(cand, pos int) int {
	max := gzFileBytes - pos
	if max > 127 {
		max = 127
	}
	return s.m.CompareRun(s.input+vm.VAddr(cand), s.input+vm.VAddr(pos), max)
}

// writeTrailer allocates the per-file trailer record — [crc 8][isize 8]
// [path ≤100] — and copies the original path into it. The copy loop trusts
// the path length: a crafted over-long path (the buggy input) runs past the
// record's end.
func (s *gzipState) writeTrailer(f int, outLen uint64, buggy bool) {
	m := s.m
	defer enter(m, gzSiteTrailer)()

	rec := mustMalloc(s.e, 16+gzNameMax)
	m.Store64(rec, outLen*0x1b5a3)
	m.Store64(rec+8, gzFileBytes)

	name := []byte("archive/file0000.txt")
	name[15] = byte('0' + f%10)
	if buggy {
		// The crafted member path: far longer than the 100-byte field.
		name = make([]byte, 150)
		for i := range name {
			name[i] = byte('A' + i%26)
		}
	}
	// strcpy(rec->path, name) — no bounds check, like the real bug. The
	// batched run bails to the slow path at the guard line (it is flushed,
	// so the first overflowing store misses), faulting exactly as singles.
	storeBytes(m, rec+16, name)
	_ = checksum(m, rec, 16)
	if err := s.e.Alloc.Free(rec); err != nil {
		machine.Abort("gzip: free trailer: %v", err)
	}
}
