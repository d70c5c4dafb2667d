package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"safemem/internal/cache"
	"safemem/internal/kernel"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// faultRecord is everything a mid-run ECC fault exposes to its handler: the
// faulting line, the simulated time of delivery, and the in-flight access
// the kernel would attribute a bug report to. All of it must be identical
// whether the surrounding run was batched or not.
type faultRecord struct {
	vline   vm.VAddr
	at      simtime.Cycles
	inVA    vm.VAddr
	inSize  int
	inWrite bool
	inOK    bool
}

// batchDigest is every simulated observable of the batch workload.
type batchDigest struct {
	cycles  simtime.Cycles
	instrs  uint64
	mstats  Stats
	cstats  cache.Stats
	sum     uint64
	wakes   []simtime.Cycles
	faults  []faultRecord
	protHit int
}

// batchWorkload drives every batched entry point through its interesting
// cases — page and line crossings, strided and misaligned runs, wake
// deadlines, watched lines, protection faults, swapped pages, cache and
// translation churn between runs — and digests all simulated state.
// The second return value is the machine's host-side lane counters
// (runs, fastOps, slowOps). An unbatched run uses a Reference machine.
func batchWorkload(t *testing.T, batched bool) (batchDigest, [3]uint64) {
	t.Helper()
	return runBatchWorkload(t, MustNew(Config{MemBytes: 1 << 20, Reference: !batched}))
}

// runBatchWorkload is batchWorkload on m, a fresh 1 MiB machine.
func runBatchWorkload(t *testing.T, m *Machine) (batchDigest, [3]uint64) {
	t.Helper()
	var d batchDigest
	h := func(v uint64) { d.sum = d.sum*0x9e3779b97f4a7c15 + v }

	err := m.Run(func() error {
		const base = vm.VAddr(0x40000)
		if err := m.Kern.MapPages(base, 8); err != nil {
			return err
		}

		// Contiguous word runs spanning lines and pages.
		buf := make([]uint64, 1200)
		for i := range buf {
			buf[i] = uint64(i) * 0x2545f4914f6cdd1d
		}
		m.StoreRun(base, 8, 8, buf)
		out := make([]uint64, len(buf))
		m.LoadRun(base, 8, 8, out)
		for _, v := range out {
			h(v)
		}
		// A discard-only scan from mid-line, across lines and pages.
		m.ScanRun(base+24, 1100)

		// Strided halfword runs (served per access).
		m.StoreRun(base+4096, 2, 16, buf[:256])
		m.LoadRun(base+4096, 2, 16, out[:256])
		for _, v := range out[:256] {
			h(v)
		}

		// Misaligned byte runs crossing lines and a page boundary.
		bs := make([]byte, 700)
		for i := range bs {
			bs[i] = byte(i*37 + 11)
		}
		m.StoreByteRun(base+vm.PageBytes-333, bs)
		rb := make([]byte, len(bs))
		m.LoadByteRun(base+vm.PageBytes-333, rb)
		for _, v := range rb {
			h(uint64(v))
		}

		// Copies: aligned words, a misaligned head that co-aligns, and a
		// never-co-aligning byte stream.
		m.CopyRun(base+3*vm.PageBytes, base, 1024)
		m.CopyRun(base+3*vm.PageBytes+1024+3, base+3, 517)
		m.CopyRun(base+3*vm.PageBytes+2048+1, base+8, 300)
		m.LoadByteRun(base+3*vm.PageBytes, rb[:512])
		for _, v := range rb[:512] {
			h(uint64(v))
		}

		// Compares: full match, a planted mismatch, a short misaligned span.
		h(uint64(m.CompareRun(base, base+3*vm.PageBytes, 1024)))
		m.Store(base+3*vm.PageBytes+777, 1, m.Load(base+3*vm.PageBytes+777, 1)^0x5a)
		h(uint64(m.CompareRun(base, base+3*vm.PageBytes, 1024)))
		h(uint64(m.CompareRun(base+1, base+3*vm.PageBytes+1, 60)))

		// A wake deadline landing inside a long byte run: it must fire at
		// the identical simulated time either way.
		m.Clock.NewTimer(m.Clock.Now()+2000, func(now simtime.Cycles) simtime.Cycles {
			d.wakes = append(d.wakes, now)
			return 0
		})
		m.StoreByteRun(base+2*vm.PageBytes, bs)
		m.LoadByteRun(base+2*vm.PageBytes, rb)
		for _, v := range rb {
			h(uint64(v))
		}

		// A watched line landing mid-run: the ECC fault must carry the same
		// line, fire at the same simulated time, and observe the same
		// in-flight access whether or not the run is batched.
		m.Kern.RegisterECCFaultHandler(func(f *kernel.ECCFault) bool {
			fr := faultRecord{vline: f.VLine, at: m.Clock.Now()}
			fr.inVA, fr.inSize, fr.inWrite, fr.inOK = m.AccessInFlight()
			d.faults = append(d.faults, fr)
			return m.Kern.DisableWatchMemory(f.VLine, 64) == nil
		})
		if _, err := m.Kern.WatchMemory(base+128, 64); err != nil {
			return err
		}
		m.LoadByteRun(base, rb[:640])
		for _, v := range rb[:640] {
			h(uint64(v))
		}

		// A protection fault mid-run with a resolving handler.
		if err := m.Kern.Mprotect(base+5*vm.PageBytes, 1, vm.ProtRead); err != nil {
			return err
		}
		m.Kern.RegisterPageFaultHandler(func(f *vm.Fault) bool {
			d.protHit++
			return m.Kern.Mprotect(f.Addr.PageAddr(), 1, vm.ProtRW) == nil
		})
		m.StoreByteRun(base+5*vm.PageBytes-64, bs[:200])

		// Swapped pages under a batched run (slow-path demand swap-in).
		m.AS.SwapOutLRU(2)
		m.LoadRun(base+6*vm.PageBytes-64, 8, 8, out[:32])
		for _, v := range out[:32] {
			h(v)
		}

		// Cache and translation churn between runs: persistent windows must
		// be re-derived, never trusted.
		m.Cache.FlushAll()
		m.LoadRun(base, 8, 8, out[:16])
		for _, v := range out[:16] {
			h(v)
		}
		m.Compute(123)
		m.CopyRun(base+7*vm.PageBytes, base+64, 640)
		h(uint64(m.CompareRun(base+7*vm.PageBytes, base+64, 640)))

		// Memset with a misaligned head and tail across a page boundary.
		m.Memset(base+4*vm.PageBytes-13, 0xa5, vm.PageBytes+29)
		m.LoadByteRun(base+4*vm.PageBytes-16, rb[:64])
		for _, v := range rb[:64] {
			h(uint64(v))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("workload (reference=%v, %d monitors): %v", m.cfg.Reference, len(m.monitors), err)
	}
	d.cycles = m.Clock.Now()
	d.instrs = m.Instructions()
	d.mstats = m.Stats()
	d.cstats = m.Cache.Stats()
	runs, fast, slow := m.BatchStats()
	return d, [3]uint64{runs, fast, slow}
}

// TestBatchEquivalence pins the fast lane's core contract: every simulated
// observable — values, instruction and cycle counts, machine and cache
// statistics, wake firing times, ECC-fault delivery (line, time, in-flight
// access), protection-fault counts — is bit-identical between a default
// machine and a Reference one (lane off), across every batched entry point
// and every bail-out reason.
func TestBatchEquivalence(t *testing.T) {
	on, lane := batchWorkload(t, true)
	off, laneOff := batchWorkload(t, false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("batched run diverges from per-access run:\non:  %+v\noff: %+v", on, off)
	}
	// Guard the test itself: the batched machine must actually have used
	// the lane (fast ops) AND exercised bail-outs (slow ops), and the
	// unbatched machine must never have entered it.
	if lane[0] == 0 || lane[1] == 0 || lane[2] == 0 {
		t.Errorf("batched workload did not exercise the lane: runs=%d fast=%d slow=%d",
			lane[0], lane[1], lane[2])
	}
	if laneOff != [3]uint64{} {
		t.Errorf("unbatched workload entered the lane: %v", laneOff)
	}
	// The workload's interesting events must all have happened, on both.
	if len(on.wakes) != 1 || len(on.faults) != 1 || on.protHit != 1 {
		t.Errorf("workload missed events: wakes=%d faults=%d protHit=%d",
			len(on.wakes), len(on.faults), on.protHit)
	}
	if len(on.faults) == 1 && !on.faults[0].inOK {
		t.Errorf("ECC fault observed no in-flight access: %+v", on.faults[0])
	}
}

// TestScanRunMatchesLoads pins ScanRun against the Load calls it stands
// for, issued one by one: a Reference machine cannot, since its ScanRun
// goes through the same per-access element. Over a resident region with
// two watched lines and a wake inside the scan, every simulated observable
// and both faults' in-flight accesses must agree.
func TestScanRunMatchesLoads(t *testing.T) {
	const words = 3000
	scans := [2]func(m *Machine, va vm.VAddr){
		func(m *Machine, va vm.VAddr) { m.ScanRun(va, words) },
		func(m *Machine, va vm.VAddr) {
			for i := vm.VAddr(0); i < words; i++ {
				m.Load(va+8*i, 8)
			}
		},
	}
	var d [2]diffDigest
	for k, scan := range scans {
		r := newRig(t, Config{MemBytes: 1 << 20})
		for _, op := range []fuzzOp{
			{kind: fopStoreRun, a: 0, b: 2047, c: 3},
			{kind: fopStoreRun, a: 16384, b: 2047, c: 3},
			{kind: fopWatch, a: 320},
			{kind: fopWatch, a: 9000},
			{kind: fopWake, a: 5000},
		} {
			r.run(op)
		}
		if err := r.m.Run(func() error { scan(r.m, fuzzBase+24); return nil }); err != nil {
			t.Fatal(err)
		}
		d[k] = r.run(fuzzOp{kind: fopCompute, a: 1})
	}
	if d[0] != d[1] {
		t.Errorf("ScanRun diverges from its Load calls\nScanRun: %+v\nLoads:   %+v", d[0], d[1])
	}
	if d[0].faults != 2 || d[0].wakes != 1 {
		t.Errorf("the scan met %d faults and %d wakes, want 2 and 1", d[0].faults, d[0].wakes)
	}
}

// TestRecycleResetsBatchLane pins that a pooled machine cannot leak
// fast-lane state across tenants: counters and persistent windows must all
// reset, and a Reference machine must stay off the lane after Recycle.
func TestRecycleResetsBatchLane(t *testing.T) {
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Run(func() error {
		if err := m.Kern.MapPages(0x10000, 2); err != nil {
			return err
		}
		m.StoreRun(0x10000, 8, 8, []uint64{1, 2, 3, 4})
		var out [4]uint64
		m.LoadRun(0x10000, 8, 8, out[:])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs, fast, _ := m.BatchStats(); runs == 0 || fast == 0 {
		t.Fatalf("workload never entered the fast lane (runs=%d fast=%d)", runs, fast)
	}
	if !m.batch.a.pageOK || !m.batch.a.lineOK {
		t.Fatal("expected an open persistent window before Recycle")
	}
	m.Recycle()
	if runs, fast, slow := m.BatchStats(); runs != 0 || fast != 0 || slow != 0 {
		t.Errorf("Recycle left lane counters: runs=%d fast=%d slow=%d", runs, fast, slow)
	}
	if m.batch.a.pageOK || m.batch.a.lineOK || m.batch.b.pageOK || m.batch.b.lineOK {
		t.Error("Recycle left a persistent window open")
	}
	if m.batch.cacheEpoch != 0 || m.batch.vmEpoch != 0 {
		t.Error("Recycle kept stale epoch snapshots")
	}
	if !m.laneOK() {
		t.Error("Recycle closed the lane on a default machine")
	}
	ref := MustNew(Config{MemBytes: 1 << 20, Reference: true})
	ref.Recycle()
	if ref.laneOK() {
		t.Error("Recycle reopened the lane on a Reference machine")
	}
}

// TestPersistentWindowEpochs pins the invalidation contract the persistent
// windows rely on: every cache-residency mutation moves Cache.Epoch and
// every translation mutation moves AddressSpace.Epoch, so laneSegs can
// prove a window left open by a previous run is still valid.
func TestPersistentWindowEpochs(t *testing.T) {
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Run(func() error {
		if err := m.Kern.MapPages(0x10000, 4); err != nil {
			return err
		}
		ce, ve := m.Cache.Epoch(), m.AS.Epoch()
		if ve == 0 {
			t.Error("MapPages did not move the translation epoch")
		}
		m.Load64(0x10000) // miss fill
		if m.Cache.Epoch() == ce {
			t.Error("miss fill did not move the cache epoch")
		}
		ce = m.Cache.Epoch()
		m.Load64(0x10000) // pure hit: residency unchanged
		if m.Cache.Epoch() != ce {
			t.Error("a hit moved the cache epoch; persistent windows would never survive")
		}
		m.Cache.FlushAll()
		if m.Cache.Epoch() == ce {
			t.Error("FlushAll did not move the cache epoch")
		}
		ve = m.AS.Epoch()
		if err := m.Kern.Mprotect(0x11000, 1, vm.ProtRead); err != nil {
			return err
		}
		if m.AS.Epoch() == ve {
			t.Error("Mprotect did not move the translation epoch")
		}
		if err := m.Kern.Mprotect(0x11000, 1, vm.ProtRW); err != nil {
			return err
		}
		ve = m.AS.Epoch()
		if m.AS.SwapOutLRU(1) != 1 {
			t.Error("SwapOutLRU swapped nothing")
		}
		if m.AS.Epoch() == ve {
			t.Error("swap-out did not move the translation epoch")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Behavioral half: a window left open across runs is reused when the
	// epochs are quiet, and re-derived — with correct results — after churn.
	m2 := MustNew(Config{MemBytes: 1 << 20})
	if err := m2.Run(func() error {
		if err := m2.Kern.MapPages(0x20000, 1); err != nil {
			return err
		}
		m2.StoreRun(0x20000, 8, 8, []uint64{11, 22, 33, 44})
		if !m2.batch.a.lineOK {
			t.Fatal("run did not leave its line window open")
		}
		line := m2.batch.a.line
		var out [4]uint64
		m2.LoadRun(0x20000, 8, 8, out[:])
		if m2.batch.a.line != line {
			t.Error("quiet epochs: second run re-derived the window instead of reusing it")
		}
		m2.Cache.FlushAll()
		misses := m2.Cache.Stats().Misses
		m2.LoadRun(0x20000, 8, 8, out[:])
		if out != [4]uint64{11, 22, 33, 44} {
			t.Errorf("post-flush batched load read %v", out)
		}
		// The flushed line must have been refilled through the slow path —
		// a stale window would have served the run without a single miss.
		if m2.Cache.Stats().Misses == misses {
			t.Error("stale window survived FlushAll: no refill miss")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPathNoAllocs extends the per-access zero-allocation pin to every
// batched entry point: a steady-state batch must not allocate either.
func TestBatchPathNoAllocs(t *testing.T) {
	m := newBenchMachine(t)
	buf := make([]uint64, 64)
	bs := make([]byte, 96)
	if avg := testing.AllocsPerRun(1000, func() {
		m.StoreRun(0x10000, 8, 8, buf)
		m.LoadRun(0x10000, 8, 8, buf)
		m.ScanRun(0x10000, 64)
		m.StoreByteRun(0x10200, bs)
		m.LoadByteRun(0x10200, bs)
		m.CopyRun(0x11000, 0x10000, 256)
		m.CompareRun(0x11000, 0x10000, 256)
		m.Memset(0x10203, 0x5a, 300)
	}); avg != 0 {
		t.Fatalf("batched access path allocates %.1f objects per round, want 0", avg)
	}
}

// TestBatchStatsPinned pins BatchStats over batchWorkload. The lane
// counters are exported on /metrics (safemem_machine_batch_runs,
// safemem_machine_batch_fast_ops, safemem_machine_batch_slow_ops), so a
// lane change must serve exactly the same accesses in-segment and bail out
// on exactly the same ones, not merely produce the same simulated state.
func TestBatchStatsPinned(t *testing.T) {
	_, lane := batchWorkload(t, true)
	if want := [3]uint64{22, 14134, 308}; lane != want {
		t.Errorf("BatchStats (runs, fast, slow) = %v, want %v", lane, want)
	}
}

// TestMisalignedRunsPanic pins the ECC-group rule for contiguous runs: an
// element that crosses an 8-byte group panics on a default machine with
// the Reference machine's message, after the same accesses, instead of
// being served from the aligned words around it; runs that stay inside
// their groups match.
func TestMisalignedRunsPanic(t *testing.T) {
	const base = vm.VAddr(0x10000)
	newM := func(reference bool) *Machine {
		m := MustNew(Config{MemBytes: 1 << 20, Reference: reference})
		if err := m.Kern.MapPages(base, 1); err != nil {
			t.Fatal(err)
		}
		for i := vm.VAddr(0); i < 256; i += 8 {
			m.Store64(base+i, uint64(i)*0x0101010101010101+0x0706050403020100)
		}
		return m
	}
	// panicOf runs f and returns what it panicked with, "" if nothing.
	panicOf := func(f func()) (msg string) {
		defer func() {
			if v := recover(); v != nil {
				msg = fmt.Sprint(v)
			}
		}()
		f()
		return ""
	}
	type run struct {
		off vm.VAddr
		n   int
	}
	// Runs that stay inside their groups: aligned runs across lines, a
	// misaligned head ending at its group's edge, and for the odd size 3
	// two elements ending at a group's edge.
	inGroup := map[int][]run{
		2: {{0, 100}, {2, 40}, {1, 3}},
		3: {{2, 2}, {10, 2}},
		4: {{0, 100}, {4, 40}, {1, 1}},
		8: {{0, 100}, {8, 40}},
	}
	for _, size := range []int{2, 3, 4, 8} {
		stride := uint64(size)
		for _, c := range inGroup[size] {
			var got [2][]uint64
			var stats [2]Stats
			for i, ref := range []bool{false, true} {
				m := newM(ref)
				got[i] = make([]uint64, c.n)
				m.LoadRun(base+c.off, size, stride, got[i])
				m.StoreRun(base+128+c.off, size, stride, got[i])
				m.LoadRun(base+128+c.off, size, stride, got[i])
				stats[i] = m.Stats()
			}
			if !reflect.DeepEqual(got[0], got[1]) || stats[0] != stats[1] {
				t.Errorf("size %d in-group run at +%d: default %v %+v, reference %v %+v",
					size, c.off, got[0], stats[0], got[1], stats[1])
			}
		}
		for _, off := range []vm.VAddr{3, 5} {
			for _, write := range []bool{false, true} {
				var msg [2]string
				var stats [2]Stats
				for i, ref := range []bool{false, true} {
					m := newM(ref)
					buf := make([]uint64, 8)
					msg[i] = panicOf(func() {
						if write {
							m.StoreRun(base+off, size, stride, buf)
						} else {
							m.LoadRun(base+off, size, stride, buf)
						}
					})
					stats[i] = m.Stats()
				}
				if msg[1] == "" || !strings.Contains(msg[1], "crosses ECC-group boundary") {
					t.Fatalf("size %d write=%v at +%d: reference panic %q, want a group-crossing panic",
						size, write, off, msg[1])
				}
				if msg[0] != msg[1] || stats[0] != stats[1] {
					t.Errorf("size %d write=%v at +%d: default panicked %q after %+v, reference %q after %+v",
						size, write, off, msg[0], stats[0], msg[1], stats[1])
				}
			}
		}
	}
}
