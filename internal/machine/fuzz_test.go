package machine

import (
	"testing"

	"safemem/internal/cache"
	"safemem/internal/kernel"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// Differential machine fuzzing: one op program runs on a default machine and
// on a Config.Reference machine (every host-side fast lane off), and every
// simulated observable must agree after every op.

// Op kinds of a differential program. Each op is fuzzOpBytes bytes: the
// kind, two little-endian 16-bit arguments a and b, and a byte argument c.
const (
	fopLoad byte = iota
	fopStore
	fopLoadRun
	fopStoreRun
	fopLoadByteRun
	fopStoreByteRun
	fopCopyRun
	fopCompareRun
	fopWatch
	fopUnwatch
	fopFlipData
	fopFlipData2
	fopFlipCheck
	fopFlipCheck2
	fopMprotect
	fopSwapOut
	fopWake
	fopCompute
	fopSnapshot
	fopRestore
	fopRecycle
	fopMemset
	fopMonitor
	fopScanRun
	fopKinds
)

const (
	fuzzOpBytes = 6
	fuzzMaxOps  = 64

	fuzzBase   = vm.VAddr(0x40000)
	fuzzPages  = 8
	fuzzRegion = fuzzPages * vm.PageBytes
	fuzzHalf   = fuzzRegion / 2
)

// fuzzCache is both rigs' cache: 8 sets of 2 ways (1 KiB) over the 32 KiB
// region, so programs evict lines and the LRU victim order and write-backs
// are part of what the two machines must agree on. The default 512×8 cache
// holds the whole region at one line per set and never replaces anything.
var fuzzCache = cache.Config{Sets: 8, Ways: 2}

type fuzzOp struct {
	kind byte
	a, b uint16
	c    byte
}

// encodeOps is decodeOps' inverse, for writing seed programs.
func encodeOps(ops ...fuzzOp) []byte {
	out := make([]byte, 0, len(ops)*fuzzOpBytes)
	for _, op := range ops {
		out = append(out, op.kind, byte(op.a), byte(op.a>>8), byte(op.b), byte(op.b>>8), op.c)
	}
	return out
}

func decodeOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for len(data) >= fuzzOpBytes && len(ops) < fuzzMaxOps {
		ops = append(ops, fuzzOp{
			kind: data[0] % fopKinds,
			a:    uint16(data[1]) | uint16(data[2])<<8,
			b:    uint16(data[3]) | uint16(data[4])<<8,
			c:    data[5],
		})
		data = data[fuzzOpBytes:]
	}
	return ops
}

// diffDigest is every simulated observable of a differential rig.
type diffDigest struct {
	sum    uint64 // values read, fault records and wake times, hashed
	faults int
	wakes  int
	now    simtime.Cycles
	instrs uint64
	stats  Stats
	cache  cache.Stats
	ctrl   memctrl.Stats
	err    string
	// monitored counts the accesses the rig's monitor was shown.
	monitored int
}

// diffRig is one machine of a differential pair plus what its handlers
// observed.
type diffRig struct {
	t    *testing.T
	m    *Machine
	snap *Snapshot
	d    diffDigest
}

func newDiffRig(t *testing.T, reference bool) *diffRig {
	return newRig(t, Config{MemBytes: 1 << 20, Cache: fuzzCache, Reference: reference})
}

func newRig(t *testing.T, cfg Config) *diffRig {
	r := &diffRig{t: t, m: MustNew(cfg)}
	r.setup()
	return r
}

func (r *diffRig) h(v uint64) { r.d.sum = r.d.sum*0x9e3779b97f4a7c15 + v + 1 }

// OnLoad and OnStore make a rig its own recording monitor (fopMonitor):
// each access it is shown hashes into its digest.
func (r *diffRig) OnLoad(va vm.VAddr, size int)  { r.monitor(false, va, size) }
func (r *diffRig) OnStore(va vm.VAddr, size int) { r.monitor(true, va, size) }

func (r *diffRig) monitor(store bool, va vm.VAddr, size int) {
	r.d.monitored++
	r.h(boolBit(store))
	r.h(uint64(va))
	r.h(uint64(size))
}

// setup maps the fuzz region and installs the handlers: ECC faults on
// watched lines record the in-flight access and disarm the watch, anything
// else panics the kernel; protection faults restore read-write access.
func (r *diffRig) setup() {
	m := r.m
	if err := m.Kern.MapPages(fuzzBase, fuzzPages); err != nil {
		r.t.Fatal(err)
	}
	m.Kern.RegisterECCFaultHandler(func(f *kernel.ECCFault) bool {
		va, size, write, ok := m.AccessInFlight()
		r.d.faults++
		r.h(uint64(f.VLine))
		r.h(uint64(m.Clock.Now()))
		r.h(uint64(va))
		r.h(uint64(size))
		r.h(boolBit(write)<<1 | boolBit(ok))
		if !f.Watched {
			return false
		}
		return m.Kern.DisableWatchMemory(f.VLine, 64) == nil
	})
	m.Kern.RegisterPageFaultHandler(func(f *vm.Fault) bool {
		r.h(uint64(f.Addr))
		return m.Kern.Mprotect(f.Addr.PageAddr(), 1, vm.ProtRW) == nil
	})
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fitRun clamps a run of n elements spaced stride apart, each size bytes,
// starting off bytes into a space of limit bytes, so it stays inside.
func fitRun(off, size, stride, n, limit uint64) uint64 {
	if off+size > limit {
		return 0
	}
	return min(n, (limit-off-size)/stride+1)
}

func (r *diffRig) step(op fuzzOp) {
	m := r.m
	size := uint64(1) << (op.c & 3)
	off := uint64(op.a) % fuzzRegion
	aligned := off &^ (size - 1)
	val := uint64(op.b)*0x9e3779b97f4a7c15 ^ uint64(op.c)

	switch op.kind {
	case fopLoad:
		r.h(m.Load(fuzzBase+vm.VAddr(aligned), int(size)))
	case fopStore:
		m.Store(fuzzBase+vm.VAddr(aligned), int(size), val)
	case fopLoadRun, fopStoreRun:
		stride := size * (1 + uint64(op.c>>2&3))
		n := fitRun(aligned, size, stride, 1+uint64(op.b)%2048, fuzzRegion)
		buf := make([]uint64, n)
		if op.kind == fopStoreRun {
			for i := range buf {
				buf[i] = val * uint64(i+1)
			}
			m.StoreRun(fuzzBase+vm.VAddr(aligned), int(size), stride, buf)
			return
		}
		m.LoadRun(fuzzBase+vm.VAddr(aligned), int(size), stride, buf)
		for _, v := range buf {
			r.h(v)
		}
	case fopLoadByteRun, fopStoreByteRun:
		buf := make([]byte, fitRun(off, 1, 1, 1+uint64(op.b)%1024, fuzzRegion))
		if op.kind == fopStoreByteRun {
			for i := range buf {
				buf[i] = byte(val) + byte(i)*op.c
			}
			m.StoreByteRun(fuzzBase+vm.VAddr(off), buf)
			return
		}
		m.LoadByteRun(fuzzBase+vm.VAddr(off), buf)
		for _, v := range buf {
			r.h(uint64(v))
		}
	case fopScanRun:
		m.ScanRun(fuzzBase+vm.VAddr(off&^7), fitRun(off&^7, 8, 8, 1+uint64(op.b)%2048, fuzzRegion))
	case fopMemset:
		m.Memset(fuzzBase+vm.VAddr(off), op.c, fitRun(off, 1, 1, 1+uint64(op.b)%16384, fuzzRegion))
	case fopCopyRun, fopCompareRun:
		// Source in the low half, destination in the high half: CopyRun's
		// regions must not overlap.
		src := uint64(op.a) % fuzzHalf
		dst := uint64(op.b) % fuzzHalf
		n := min(1+uint64(op.c)*8, fuzzHalf-src, fuzzHalf-dst)
		if op.kind == fopCopyRun {
			m.CopyRun(fuzzBase+vm.VAddr(fuzzHalf+dst), fuzzBase+vm.VAddr(src), n)
			return
		}
		r.h(uint64(m.CompareRun(fuzzBase+vm.VAddr(src), fuzzBase+vm.VAddr(fuzzHalf+dst), int(n))))
	case fopWatch:
		_, err := m.Kern.WatchMemory(fuzzBase+vm.VAddr(off&^63), 64*(1+uint64(op.c%2)))
		r.h(boolBit(err != nil))
	case fopUnwatch:
		r.h(boolBit(m.Kern.DisableWatchMemory(fuzzBase+vm.VAddr(off&^63), 64) != nil))
	case fopFlipData, fopFlipData2, fopFlipCheck, fopFlipCheck2:
		frame, ok := m.AS.FrameOf(fuzzBase + vm.VAddr(off))
		r.h(boolBit(ok))
		if !ok {
			return
		}
		pa := frame + physmem.Addr(off%vm.PageBytes&^7)
		switch op.kind {
		case fopFlipData:
			m.Phys.FlipDataBit(pa, uint(op.c%64))
		case fopFlipData2:
			m.Phys.FlipDataBit(pa, uint(op.c%64))
			m.Phys.FlipDataBit(pa, uint(op.c%64+1+uint8(op.b%63))%64)
		case fopFlipCheck:
			m.Phys.FlipCheckBit(pa, uint(op.c%8))
		case fopFlipCheck2:
			m.Phys.FlipCheckBit(pa, uint(op.c%8))
			m.Phys.FlipCheckBit(pa, uint(op.c%8+1+uint8(op.b%7))%8)
		}
	case fopMprotect:
		prot := vm.ProtRead
		if op.c&1 != 0 {
			prot = vm.ProtNone
		} else if op.c&2 != 0 {
			prot = vm.ProtWrite
		}
		page := fuzzBase + vm.VAddr(uint64(op.a)%fuzzPages*vm.PageBytes)
		r.h(boolBit(m.Kern.Mprotect(page, 1, prot) != nil))
	case fopSwapOut:
		r.h(uint64(m.AS.SwapOutLRU(1 + int(op.c%4))))
	case fopWake:
		m.Clock.NewTimer(m.Clock.Now()+1+simtime.Cycles(op.a%8192), func(now simtime.Cycles) simtime.Cycles {
			r.d.wakes++
			r.h(uint64(now))
			return 0
		})
	case fopCompute:
		m.Compute(1 + uint64(op.a%4096))
	case fopSnapshot:
		r.snap = m.Snapshot()
	case fopRestore:
		if r.snap != nil {
			m.Restore(r.snap)
		}
	case fopRecycle:
		m.Recycle()
		r.snap = nil
		r.setup()
	case fopMonitor:
		if op.c&1 == 0 {
			m.AttachMonitor(r)
		} else {
			m.DetachMonitors()
		}
	}
}

// run applies op as one simulated program and returns the digest. A
// termination (segfault, kernel panic) is part of the digest.
func (r *diffRig) run(op fuzzOp) diffDigest {
	m := r.m
	if err := m.Run(func() error { r.step(op); return nil }); err != nil {
		r.d.err = err.Error()
	}
	r.d.now = m.Clock.Now()
	r.d.instrs = m.Instructions()
	r.d.stats = m.Stats()
	r.d.cache = m.Cache.Stats()
	r.d.ctrl = m.Ctrl.Stats()
	return r.d
}

// runDifferential runs ops on a default and a Reference machine, failing on
// the first op after which their digests differ, and returns both rigs. The
// program stops at the first termination: a terminated machine is never
// reused (Pool's taint rule).
func runDifferential(t *testing.T, ops []fuzzOp) (fast, ref *diffRig) {
	t.Helper()
	fast, ref = newDiffRig(t, false), newDiffRig(t, true)
	for i, op := range ops {
		df, dr := fast.run(op), ref.run(op)
		if df != dr {
			t.Fatalf("op %d %+v: default machine diverges from reference\ndefault:   %+v\nreference: %+v",
				i, op, df, dr)
		}
		if df.err != "" {
			break
		}
	}
	return fast, ref
}

// fuzzSeeds are the batchWorkload shapes as differential programs: word,
// strided and misaligned byte runs across lines and pages, copies and
// compares with a planted mismatch, a wake inside a run, a watched line
// under a run, a protection fault, swapped pages, snapshot/restore and
// recycle, and single- and double-bit plants. The next four cover the
// span engine's commit boundaries: LRU victims decided by batched line
// stamps, a swap-out victim decided by a batched page touch, a wake armed
// to fall inside a multi-page word run and a multi-page Memset, and
// protection changes and swap-outs between runs. The last three cover
// them for two-stream runs: an LRU victim and a swap-out victim decided by
// the order of a copy's source and destination stamps, and wakes inside
// compares. monitorSeeds follow.
func fuzzSeeds() [][]byte {
	const page, half = uint16(vm.PageBytes), uint16(fuzzHalf)
	return append([][]byte{
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 255, c: 3},
			fuzzOp{kind: fopLoadRun, a: 0, b: 255, c: 3},
			fuzzOp{kind: fopStoreRun, a: page, b: 200, c: 1 | 3<<2},
			fuzzOp{kind: fopLoadRun, a: page, b: 200, c: 1 | 3<<2},
		),
		encodeOps(
			fuzzOp{kind: fopStoreByteRun, a: page - 333, b: 699, c: 37},
			fuzzOp{kind: fopLoadByteRun, a: page - 333, b: 699},
			fuzzOp{kind: fopLoad, a: page - 3, c: 0},
			fuzzOp{kind: fopStore, a: page + 6, b: 9, c: 1},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 255, c: 3},
			fuzzOp{kind: fopCopyRun, a: 0, b: 0, c: 127},
			fuzzOp{kind: fopCopyRun, a: 3, b: 1027, c: 64},
			fuzzOp{kind: fopCompareRun, a: 0, b: 0, c: 127},
			fuzzOp{kind: fopStore, a: 2*page + 777, b: 5, c: 0},
			fuzzOp{kind: fopCompareRun, a: 0, b: 0, c: 127},
			fuzzOp{kind: fopCompareRun, a: 1, b: 1, c: 7},
		),
		encodeOps(
			fuzzOp{kind: fopWake, a: 2000},
			fuzzOp{kind: fopStoreByteRun, a: 2 * page, b: 699, c: 11},
			fuzzOp{kind: fopWake, a: 300},
			fuzzOp{kind: fopLoadByteRun, a: 2 * page, b: 699},
			fuzzOp{kind: fopCompute, a: 500},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 100, c: 3},
			fuzzOp{kind: fopWatch, a: 128},
			fuzzOp{kind: fopLoadByteRun, a: 0, b: 639},
			fuzzOp{kind: fopWatch, a: 576},
			fuzzOp{kind: fopLoadRun, a: 448, b: 40, c: 3},
			fuzzOp{kind: fopUnwatch, a: 576},
			fuzzOp{kind: fopUnwatch, a: 576},
		),
		encodeOps(
			fuzzOp{kind: fopMprotect, a: 5},
			fuzzOp{kind: fopStoreByteRun, a: 5*page - 64, b: 199, c: 3},
			fuzzOp{kind: fopMprotect, a: 6, c: 1},
			fuzzOp{kind: fopLoadRun, a: 6*page - 64, b: 31, c: 3},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 255, c: 3},
			fuzzOp{kind: fopSwapOut, c: 1},
			fuzzOp{kind: fopLoadRun, a: 6*page - 64, b: 31, c: 3},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopSnapshot},
			fuzzOp{kind: fopStoreRun, a: 0, b: 63, c: 2},
			fuzzOp{kind: fopWake, a: 100},
			fuzzOp{kind: fopRestore},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopRecycle},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopCopyRun, a: 8, b: 8, c: 20},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopFlipData, a: 64, c: 5},
			fuzzOp{kind: fopFlipCheck, a: 200, c: 2},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopWatch, a: 256},
			fuzzOp{kind: fopFlipData2, a: 256, b: 3, c: 9},
			fuzzOp{kind: fopLoad, a: 256, c: 3},
			fuzzOp{kind: fopFlipCheck2, a: 1024, b: 1, c: 4},
			fuzzOp{kind: fopLoadByteRun, a: 1000, b: 100},
		),
		// Lines 0, 512, 1024 and 1536 share a set of the 2-way fuzzCache:
		// the batched loads must stamp line 0 — first as a run ending
		// mid-line, then as a run leaving it for line 64 — so that the
		// other line is the victim both times.
		encodeOps(
			fuzzOp{kind: fopLoad, a: 0, c: 3},
			fuzzOp{kind: fopLoad, a: 512, c: 3},
			fuzzOp{kind: fopLoadRun, a: 8, b: 0, c: 3},
			fuzzOp{kind: fopLoad, a: 1024, c: 3},
			fuzzOp{kind: fopLoad, a: 0, c: 3},
			fuzzOp{kind: fopLoad, a: 1024, c: 3},
			fuzzOp{kind: fopLoadRun, a: 48, b: 3, c: 3},
			fuzzOp{kind: fopLoad, a: 1536, c: 3},
			fuzzOp{kind: fopLoad, a: 0, c: 3},
		),
		// Page 0 is touched first, pages 1-7 after it (each in its own
		// cache set); a batched run leaving page 0 for page 1 must touch
		// page 0 again, so the swap-out takes page 2 and the last load
		// finds page 0 present.
		encodeOps(
			fuzzOp{kind: fopLoad, a: page - 64, c: 3},
			fuzzOp{kind: fopLoad, a: page, c: 3},
			fuzzOp{kind: fopLoad, a: 2*page + 64, c: 3},
			fuzzOp{kind: fopLoad, a: 3*page + 128, c: 3},
			fuzzOp{kind: fopLoad, a: 4*page + 192, c: 3},
			fuzzOp{kind: fopLoad, a: 5*page + 256, c: 3},
			fuzzOp{kind: fopLoad, a: 6*page + 320, c: 3},
			fuzzOp{kind: fopLoad, a: 7*page + 384, c: 3},
			fuzzOp{kind: fopLoadRun, a: page - 8, b: 1, c: 3},
			fuzzOp{kind: fopSwapOut},
			fuzzOp{kind: fopLoad, a: page - 8, c: 3},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 2047, c: 3},
			fuzzOp{kind: fopWake, a: 3000},
			fuzzOp{kind: fopLoadRun, a: page - 256, b: 2047, c: 3},
			fuzzOp{kind: fopWake, a: 5000},
			fuzzOp{kind: fopMemset, a: 3*page - 5, b: 2*page + 100, c: 0x5a},
			fuzzOp{kind: fopLoadByteRun, a: 3*page - 5, b: 1023},
		),
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 2047, c: 3},
			fuzzOp{kind: fopMprotect, a: 1},
			fuzzOp{kind: fopStoreRun, a: 64, b: 2047, c: 3},
			fuzzOp{kind: fopSwapOut, c: 2},
			fuzzOp{kind: fopLoadRun, a: 0, b: 2047, c: 3},
			fuzzOp{kind: fopMemset, a: page + 3, b: 3 * page, c: 0xff},
			fuzzOp{kind: fopMprotect, a: 2, c: 1},
			fuzzOp{kind: fopLoadRun, a: page, b: 2047, c: 2},
		),
		// Source lines 0 and 64 share sets 0 and 1 with destination lines
		// half and half+64. The copy's destination leaves its first line
		// at element 3, its source at element 7, and both end in set 1,
		// source before destination: the loads after it must evict the
		// destination's first line from set 0 and the source's second line
		// from set 1.
		encodeOps(
			fuzzOp{kind: fopLoad, a: 0, c: 3},
			fuzzOp{kind: fopLoad, a: 64, c: 3},
			fuzzOp{kind: fopLoad, a: half, c: 3},
			fuzzOp{kind: fopLoad, a: half + 64, c: 3},
			fuzzOp{kind: fopCopyRun, a: 8, b: 40, c: 8},
			fuzzOp{kind: fopLoad, a: 512, c: 3},
			fuzzOp{kind: fopLoad, a: half, c: 3},
			fuzzOp{kind: fopLoad, a: 576, c: 3},
			fuzzOp{kind: fopLoad, a: 64, c: 3},
		),
		// The copy's destination crosses from page 4 to page 5 while its
		// source stays on page 0, and pages 1-3, 6 and 7 are touched after
		// it. Page 0's last access precedes page 5's, so the two-page
		// swap-out takes pages 4 and 0, and the last load swaps page 0
		// back in.
		encodeOps(
			fuzzOp{kind: fopLoad, a: 0, c: 3},
			fuzzOp{kind: fopLoad, a: half + page - 64, c: 3},
			fuzzOp{kind: fopLoad, a: half + page, c: 3},
			fuzzOp{kind: fopCopyRun, a: 8, b: page - 16, c: 4},
			fuzzOp{kind: fopLoad, a: page + 128, c: 3},
			fuzzOp{kind: fopLoad, a: 2*page + 192, c: 3},
			fuzzOp{kind: fopLoad, a: 3*page + 256, c: 3},
			fuzzOp{kind: fopLoad, a: half + 2*page + 320, c: 3},
			fuzzOp{kind: fopLoad, a: half + 3*page + 384, c: 3},
			fuzzOp{kind: fopSwapOut, c: 1},
			fuzzOp{kind: fopLoad, a: 8, c: 3},
		),
		// Wakes armed to fall inside compares of two equal copies: each
		// must fire at its exact cycle, mid-run.
		encodeOps(
			fuzzOp{kind: fopCopyRun, a: 0, b: 0, c: 40},
			fuzzOp{kind: fopWake, a: 1000},
			fuzzOp{kind: fopCompareRun, a: 0, b: 0, c: 40},
			fuzzOp{kind: fopWake, a: 300},
			fuzzOp{kind: fopCompareRun, a: 3, b: 3, c: 30},
		),
	}, monitorSeeds()...)
}

// monitorSeeds cover runs the lane refuses at entry because a monitor is
// attached: one attached between runs over the same lines, which must not
// be served from the windows the first run left open, a detach after
// which runs over those lines resume the lane, and a restore of a snapshot
// taken with a monitor attached, after a detach: the monitor must see the
// runs that follow.
func monitorSeeds() [][]byte {
	return [][]byte{
		encodeOps(
			fuzzOp{kind: fopStoreRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopMonitor},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopCopyRun, a: 8, b: 8, c: 20},
			fuzzOp{kind: fopMemset, a: 3, b: 100, c: 0x5a},
			fuzzOp{kind: fopLoadByteRun, a: 5, b: 300},
		),
		encodeOps(
			fuzzOp{kind: fopMonitor},
			fuzzOp{kind: fopStoreRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopCompareRun, a: 0, b: 0, c: 20},
			fuzzOp{kind: fopMonitor, c: 1},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
			fuzzOp{kind: fopStoreByteRun, a: 5, b: 300, c: 7},
			fuzzOp{kind: fopCopyRun, a: 8, b: 8, c: 20},
		),
		encodeOps(
			fuzzOp{kind: fopMonitor},
			fuzzOp{kind: fopSnapshot},
			fuzzOp{kind: fopMonitor, c: 1},
			fuzzOp{kind: fopScanRun, a: 0, b: 63},
			fuzzOp{kind: fopRestore},
			fuzzOp{kind: fopScanRun, a: 0, b: 63},
			fuzzOp{kind: fopLoadRun, a: 0, b: 63, c: 3},
		),
	}
}

// TestMonitorSeedsMatchReference runs monitorSeeds on a default and a
// Reference machine, op by op as runDifferential does, and guards them: a
// run under a monitor must show the monitor its accesses and enter no
// lane, and an unmonitored run must enter the lane.
func TestMonitorSeedsMatchReference(t *testing.T) {
	runKinds := map[byte]bool{fopLoadRun: true, fopScanRun: true, fopStoreRun: true, fopLoadByteRun: true,
		fopStoreByteRun: true, fopCopyRun: true, fopCompareRun: true, fopMemset: true}
	for i, seed := range monitorSeeds() {
		fast, ref := newDiffRig(t, false), newDiffRig(t, true)
		for j, op := range decodeOps(seed) {
			watched, seen := len(fast.m.monitors) > 0, fast.d.monitored
			runs, _, _ := fast.m.BatchStats()
			df, dr := fast.run(op), ref.run(op)
			if df != dr {
				t.Fatalf("program %d op %d %+v: default machine diverges from reference\ndefault:   %+v\nreference: %+v",
					i, j, op, df, dr)
			}
			if !runKinds[op.kind] {
				continue
			}
			after, _, _ := fast.m.BatchStats()
			if watched && (after != runs || df.monitored == seen) {
				t.Errorf("program %d op %d: monitored run entered %d lane runs and showed the monitor %d accesses",
					i, j, after-runs, df.monitored-seen)
			}
			if !watched && after == runs {
				t.Errorf("program %d op %d: unmonitored run did not enter the lane", i, j)
			}
		}
	}
}

// stretchSeeds are the edges of the span engine's whole-line stretches,
// each ended by a set-filling sweep (a run over eight fresh lines, one per
// set of fuzzCache, evicting each set's LRU line) and a rescan whose misses
// show which lines the sweep evicted. Lines 0-15 of a page fill fuzzCache
// exactly, two lines a set, and a stretch needs them resident.
//
// The copy seeds cover the two-stream stretches of co-aligned word copies.
// Each stages eight source and eight destination lines, one of each per
// set, and ends with a single set-filling load instead of the sweep: it
// evicts from every set whichever of the pair the copy stamped first, so
// the resident lines TestStretchEdgesMatchReference compares show the
// stamp order.
func stretchSeeds() [][]byte {
	const page = uint16(vm.PageBytes)
	sweep := func(at uint16) []fuzzOp {
		return []fuzzOp{
			{kind: fopLoadRun, a: at, b: 63, c: 3},
			{kind: fopLoadRun, a: 0, b: 127, c: 3},
			{kind: fopLoadRun, a: page - 512, b: 127, c: 3},
		}
	}
	return append([][]byte{
		// A run resumes on line 2, where the last one left its window,
		// and loads three words there before its stretch from line 3:
		// line 2 must be stamped before the stretch, so that line 10,
		// loaded in between, is set 2's victim in the sweep.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: 0, b: 127, c: 3},
			{kind: fopLoadRun, a: 0, b: 20, c: 3},
			{kind: fopLoad, a: 640, c: 3},
			{kind: fopLoadRun, a: 168, b: 42, c: 3},
		}, sweep(2048)...)...),
		// The first program with discard-only scans: the scan resuming
		// on line 2 must stamp it before its stretch, as the load above
		// does. Then a scan over lines 0-15 meets watched line 5 (the
		// watch flushed it), whose fault the slow path takes, and a wake
		// armed to fall inside the scan's later stretch.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: 0, b: 127, c: 3},
			{kind: fopScanRun, a: 0, b: 20},
			{kind: fopLoad, a: 640, c: 3},
			{kind: fopScanRun, a: 168, b: 42},
			{kind: fopWatch, a: 320},
			{kind: fopWake, a: 700},
			{kind: fopScanRun, a: 0, b: 127},
		}, sweep(2048)...)...),
		// Loading line 22 evicts line 6: the stretch from line 0 meets it
		// mid-page, serves it by a miss that evicts line 14, and meets
		// line 14 in the stretch that resumes at line 7.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: 0, b: 127, c: 3},
			{kind: fopLoad, a: 1408, c: 3},
			{kind: fopLoadRun, a: 0, b: 127, c: 3},
			{kind: fopLoad, a: 1408, c: 3},
			{kind: fopStoreByteRun, a: 0, b: 1023, c: 5},
		}, sweep(2048)...)...),
		// Stretches ending at the page boundary: lines 61-63 of page 0,
		// then lines 1-3 of page 1 after its first line opens the page.
		// Pages 2-7 are touched between the runs, each in a set of its
		// own, so the swap-out takes page 2 only if the second run touched
		// page 1 as well as page 0.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: page - 256, b: 63, c: 3},
			{kind: fopLoad, a: 2 * page, c: 3},
			{kind: fopLoad, a: 3*page + 64, c: 3},
			{kind: fopLoad, a: 4*page + 128, c: 3},
			{kind: fopLoad, a: 5*page + 192, c: 3},
			{kind: fopLoad, a: 6*page + 256, c: 3},
			{kind: fopLoad, a: 7*page + 320, c: 3},
			{kind: fopLoadRun, a: page - 248, b: 62, c: 3},
			{kind: fopSwapOut},
			{kind: fopLoad, a: page + 8, c: 3},
			{kind: fopStoreRun, a: page - 512, b: 127, c: 3},
			{kind: fopLoadRun, a: page - 504, b: 126, c: 3},
			{kind: fopMemset, a: page - 512, b: 1023, c: 0x3c},
			{kind: fopLoadByteRun, a: page - 512, b: 1023},
		}, sweep(2*page)...)...),
		// Wakes clip stretches of word loads, byte loads and stores
		// mid-line; each must fire at its exact cycle.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: 0, b: 127, c: 3},
			{kind: fopWake, a: 150},
			{kind: fopLoadRun, a: 0, b: 127, c: 3},
			{kind: fopWake, a: 1000},
			{kind: fopLoadByteRun, a: 0, b: 1023},
			{kind: fopWake, a: 333},
			{kind: fopStoreRun, a: 0, b: 127, c: 3},
			{kind: fopWake, a: 2100},
			{kind: fopStoreByteRun, a: 0, b: 1023, c: 9},
		}, sweep(2048)...)...),
		// Windows resumed on pages that refuse the next run's access:
		// loads after stores on a write-only page, then stores after
		// loads on a read-only one. No stretch may serve them; each
		// faults on its first element and the handler opens the page.
		encodeOps(append([]fuzzOp{
			{kind: fopStoreRun, a: page, b: 127, c: 3},
			{kind: fopMprotect, a: 1, c: 2},
			{kind: fopStoreRun, a: page, b: 63, c: 3},
			{kind: fopLoadRun, a: page + 512, b: 63, c: 3},
			{kind: fopMprotect, a: 1},
			{kind: fopLoadRun, a: page, b: 63, c: 3},
			{kind: fopStoreRun, a: page + 512, b: 63, c: 3},
			{kind: fopMprotect, a: 1},
			{kind: fopLoadByteRun, a: page, b: 511},
			{kind: fopMemset, a: page + 512, b: 511, c: 7},
		}, sweep(2*page)...)...),
	}, copyStretchSeeds()...)
}

// copyStretchSeeds are stretchSeeds' co-aligned copies. Every copy is 63
// words and a byte (c 63) between regions staged by 64-word StoreRuns.
func copyStretchSeeds() [][]byte {
	const page, half = uint16(vm.PageBytes), uint16(fuzzHalf)
	fill := fuzzOp{kind: fopLoadRun, a: 3*page + 2048, b: 63, c: 3}
	stage := func(src, dst uint16) []fuzzOp {
		return []fuzzOp{
			{kind: fopStoreRun, a: src, b: 63, c: 3},
			{kind: fopStoreRun, a: half + dst, b: 63, c: 3},
		}
	}
	copyOp := func(src, dst uint16) fuzzOp { return fuzzOp{kind: fopCopyRun, a: src, b: dst, c: 63} }
	seq := func(parts ...[]fuzzOp) []byte {
		var ops []fuzzOp
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return encodeOps(append(ops, fill)...)
	}
	return [][]byte{
		// The source page ends three lines into the stretch while the
		// destination page goes on; the next source page refuses reads,
		// so a stretch that ran on would skip its fault.
		seq(stage(page-256, 1024), []fuzzOp{
			{kind: fopMprotect, a: 1, c: 1},
			copyOp(page-256, 1024),
		}),
		// The reverse: the destination page ends, and the next one is
		// read-only.
		seq(stage(1024, page-256), []fuzzOp{
			{kind: fopMprotect, a: 5, c: 0},
			copyOp(1024, page-256),
		}),
		// A line missing mid-stretch: source line 19, then destination
		// line 37, each evicted as its set's LRU line. Then a copy whose
		// first line is opened by seven byte pairs and seven words, so
		// its stretch starts with counts pending on both streams.
		seq(stage(1024, 2048), []fuzzOp{
			{kind: fopLoad, a: 2*page + 192, c: 3},
			copyOp(1024, 2048),
		}, stage(1024, 2048)[1:], stage(1024, 2048)[:1], []fuzzOp{
			{kind: fopLoad, a: 2*page + 320, c: 3},
			copyOp(1024, 2048),
			{kind: fopCopyRun, a: 1025, b: 2049, c: 40},
		}),
		// Wakes clip copy stretches resumed on open windows, mid-line and
		// on a line boundary.
		seq(stage(1024, 2048), []fuzzOp{
			copyOp(1024, 2048),
			{kind: fopWake, a: 150},
			copyOp(1024, 2048),
			{kind: fopWake, a: 255},
			copyOp(1024, 2048),
		}),
		// A read-only destination page under windows a compare left open
		// on both streams: the copy must fault on its first store.
		seq(stage(1024, 2048), []fuzzOp{
			{kind: fopMprotect, a: 4, c: 0},
			{kind: fopCompareRun, a: 1024, b: 2048, c: 63},
			copyOp(1024, 2048),
		}),
	}
}

// TestStretchEdgesMatchReference runs stretchSeeds on a default and a
// Reference machine: every simulated observable must agree after every op
// (runDifferential), and so must the cache's contents at the end, line by
// line over the region, and again after one more set-filling sweep.
func TestStretchEdgesMatchReference(t *testing.T) {
	for i, seed := range stretchSeeds() {
		fast, ref := runDifferential(t, decodeOps(seed))
		if _, f, _ := fast.m.BatchStats(); f == 0 {
			t.Fatalf("program %d never used the fast lane", i)
		}
		for round := 0; round < 2; round++ {
			if df, dr := residentLines(t, fast.m), residentLines(t, ref.m); df != dr {
				t.Fatalf("program %d, round %d: resident lines differ\ndefault:   %x\nreference: %x", i, round, df, dr)
			}
			sweep := fuzzOp{kind: fopLoadRun, a: uint16(3 * vm.PageBytes), b: 63, c: 3}
			if df, dr := fast.run(sweep), ref.run(sweep); df != dr {
				t.Fatalf("program %d: sweep diverges\ndefault:   %+v\nreference: %+v", i, df, dr)
			}
		}
	}
}

// residentLines is a bitmap of which lines of the fuzz region m's cache
// holds (Cache.Contains), one bit a line.
func residentLines(t *testing.T, m *Machine) [fuzzRegion / physmem.LineBytes / 64]uint64 {
	var bits [fuzzRegion / physmem.LineBytes / 64]uint64
	for off := uint64(0); off < fuzzRegion; off += physmem.LineBytes {
		frame, ok := m.AS.FrameOf(fuzzBase + vm.VAddr(off))
		if !ok {
			t.Fatalf("region offset %#x unmapped", off)
		}
		if m.Cache.Contains(frame + physmem.Addr(off%vm.PageBytes)) {
			l := off / physmem.LineBytes
			bits[l/64] |= 1 << (l % 64)
		}
	}
	return bits
}

// FuzzMachineDifferential pins that Config.Reference changes host work
// only: values read, simulated time, instruction counts, machine, cache and
// controller statistics, ECC-fault delivery with its AccessInFlight record,
// and wake times all match a default machine's after every op.
func FuzzMachineDifferential(f *testing.F) {
	for _, seed := range append(fuzzSeeds(), stretchSeeds()...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, decodeOps(data))
	})
}

// runAlone runs ops on one rig built from cfg, stopping at the first
// termination.
func runAlone(t *testing.T, cfg Config, ops []fuzzOp) *diffRig {
	r := newRig(t, cfg)
	for _, op := range ops {
		if r.run(op).err != "" {
			break
		}
	}
	return r
}

// TestReferenceDisablesFastLanes guards the differential fuzzer: over the
// seed programs the default machine must use the controller's clean-line
// bitmap, the software TLB and the batch lane, and the Reference machine
// none of them — otherwise the two sides no longer differ. The programs
// must also make fuzzCache replace lines: they miss, and write back, more
// often than on the default cache, where every region line keeps its own
// set and the only misses are cold fills and refills after flushes.
func TestReferenceDisablesFastLanes(t *testing.T) {
	var small, large cache.Stats
	lanes := func(m *Machine) [3]uint64 {
		hits, _, _ := m.AS.TLBStats()
		runs, _, _ := m.BatchStats()
		return [3]uint64{m.Ctrl.FastLineReads(), hits, runs}
	}
	var fast, ref [3]uint64
	for _, seed := range fuzzSeeds() {
		ops := decodeOps(seed)
		f, r := runDifferential(t, ops)
		fl, rl := lanes(f.m), lanes(r.m)
		sc, lc := f.m.Cache.Stats(), runAlone(t, Config{MemBytes: 1 << 20}, ops).m.Cache.Stats()
		small.Misses += sc.Misses
		small.WriteBacks += sc.WriteBacks
		large.Misses += lc.Misses
		large.WriteBacks += lc.WriteBacks
		for i := range fast {
			fast[i] += fl[i]
			ref[i] += rl[i]
		}
	}
	if fast[0] == 0 || fast[1] == 0 || fast[2] == 0 {
		t.Errorf("default machine skipped a fast lane: clean reads=%d tlb hits=%d batch runs=%d",
			fast[0], fast[1], fast[2])
	}
	if ref != [3]uint64{} {
		t.Errorf("reference machine used a fast lane: clean reads=%d tlb hits=%d batch runs=%d",
			ref[0], ref[1], ref[2])
	}
	if small.Misses <= large.Misses || small.WriteBacks <= large.WriteBacks {
		t.Errorf("seed programs replace no lines: fuzzCache misses=%d write-backs=%d, default cache misses=%d write-backs=%d",
			small.Misses, small.WriteBacks, large.Misses, large.WriteBacks)
	}
}
