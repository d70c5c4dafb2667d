package machine

import (
	"reflect"
	"testing"

	"safemem/internal/cache"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

// monAccess is one access a monitor was shown.
type monAccess struct {
	store bool
	va    vm.VAddr
	size  int
}

// recordingMonitor logs every access it is shown, in order.
type recordingMonitor struct{ log []monAccess }

func (r *recordingMonitor) OnLoad(va vm.VAddr, size int) {
	r.log = append(r.log, monAccess{false, va, size})
}

func (r *recordingMonitor) OnStore(va vm.VAddr, size int) {
	r.log = append(r.log, monAccess{true, va, size})
}

// The access sequences of the per-access loops the batched entry points
// must reproduce under a monitor.

// wantRun is a LoadRun's or StoreRun's: n accesses of size bytes, stride
// apart. A byte run is one with size and stride 1.
func wantRun(store bool, va vm.VAddr, size int, stride uint64, n int) []monAccess {
	var out []monAccess
	for i := 0; i < n; i++ {
		out = append(out, monAccess{store, va + vm.VAddr(uint64(i)*stride), size})
	}
	return out
}

// wantCopy is a CopyRun's: a word load and then store while both pointers
// are 8-aligned with at least 8 bytes left, a byte pair otherwise.
func wantCopy(dst, src vm.VAddr, n uint64) []monAccess {
	var out []monAccess
	for n > 0 {
		size := 1
		if uint64(dst)%8 == 0 && uint64(src)%8 == 0 && n >= 8 {
			size = 8
		}
		out = append(out, monAccess{false, src, size}, monAccess{true, dst, size})
		dst, src, n = dst+vm.VAddr(size), src+vm.VAddr(size), n-uint64(size)
	}
	return out
}

// wantCompare is a CompareRun's that first mismatches at byte match
// (match == max: never): byte loads at a+k, then b+k, for every k up to
// and including the mismatch.
func wantCompare(a, b vm.VAddr, match, max int) []monAccess {
	var out []monAccess
	for k := 0; k < max && k <= match; k++ {
		out = append(out, monAccess{false, a + vm.VAddr(k), 1}, monAccess{false, b + vm.VAddr(k), 1})
	}
	return out
}

// wantMemset is a Memset's: a word store at each 8-aligned address with at
// least 8 bytes left, a byte store elsewhere.
func wantMemset(va vm.VAddr, n uint64) []monAccess {
	var out []monAccess
	for end := va + vm.VAddr(n); va < end; {
		size := 1
		if uint64(va)%8 == 0 && end-va >= 8 {
			size = 8
		}
		out = append(out, monAccess{true, va, size})
		va += vm.VAddr(size)
	}
	return out
}

// monitoredProgram drives every batched entry point on m: contiguous and
// strided word runs, both byte runs, an aligned copy, one whose misaligned
// head co-aligns and one that never co-aligns, a matching and a
// mismatching compare, and a Memset with a misaligned head and tail. It
// returns a hash of every value read and the access sequence the
// per-access loops issue for the same program.
func monitoredProgram(t *testing.T, m *Machine) (sum uint64, want []monAccess) {
	t.Helper()
	const (
		base = vm.VAddr(0x40000)
		page = vm.VAddr(vm.PageBytes)
		src  = base + page - 160 // word-aligned, 160 bytes short of page 1
		dst  = base + 3*page
	)
	h := func(v uint64) { sum = sum*0x9e3779b97f4a7c15 + v + 1 }
	err := m.Run(func() error {
		if err := m.Kern.MapPages(base, 4); err != nil {
			return err
		}
		words, out := make([]uint64, 40), make([]uint64, 40)
		for i := range words {
			words[i] = uint64(i+1) * 0x2545f4914f6cdd1d
		}
		m.StoreRun(src, 8, 8, words)
		m.LoadRun(src, 8, 8, out)
		want = append(want, wantRun(true, src, 8, 8, 40)...)
		want = append(want, wantRun(false, src, 8, 8, 40)...)

		m.StoreRun(base+2*page+6, 2, 24, words[:20])
		m.LoadRun(base+2*page+6, 2, 24, out[20:])
		want = append(want, wantRun(true, base+2*page+6, 2, 24, 20)...)
		want = append(want, wantRun(false, base+2*page+6, 2, 24, 20)...)
		for _, v := range out {
			h(v)
		}

		bs, rb := make([]byte, 150), make([]byte, 150)
		for i := range bs {
			bs[i] = byte(i*37 + 11)
		}
		m.StoreByteRun(base+page-75, bs)
		m.LoadByteRun(base+page-75, rb)
		want = append(want, wantRun(true, base+page-75, 1, 1, 150)...)
		want = append(want, wantRun(false, base+page-75, 1, 1, 150)...)
		for _, v := range rb {
			h(uint64(v))
		}

		m.CopyRun(dst, src, 256)
		m.CopyRun(dst+512+3, src+3, 100)
		m.CopyRun(dst+1024+1, src+8, 40)
		want = append(want, wantCopy(dst, src, 256)...)
		want = append(want, wantCopy(dst+512+3, src+3, 100)...)
		want = append(want, wantCopy(dst+1024+1, src+8, 40)...)

		if k := m.CompareRun(src, dst, 256); k != 256 {
			t.Errorf("compare of a copy matched %d bytes, want 256", k)
		}
		m.Store(dst+100, 1, m.Load(dst+100, 1)^0x5a)
		if k := m.CompareRun(src, dst, 256); k != 100 {
			t.Errorf("compare matched %d bytes, want 100", k)
		}
		want = append(want, wantCompare(src, dst, 256, 256)...)
		want = append(want, monAccess{false, dst + 100, 1}, monAccess{true, dst + 100, 1})
		want = append(want, wantCompare(src, dst, 100, 256)...)

		m.Memset(base+2*page-13, 0xa5, 100)
		m.LoadByteRun(base+2*page-16, rb[:110])
		want = append(want, wantMemset(base+2*page-13, 100)...)
		want = append(want, wantRun(false, base+2*page-16, 1, 1, 110)...)
		for _, v := range rb[:110] {
			h(uint64(v))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("monitored program (reference=%v): %v", m.cfg.Reference, err)
	}
	return sum, want
}

// laneClosed reports whether both of m's persistent run windows are closed.
func laneClosed(m *Machine) bool {
	a, b := &m.batch.a, &m.batch.b
	return !a.pageOK && !a.lineOK && !b.pageOK && !b.lineOK
}

// TestMonitorCallOrder pins what a per-access monitor sees of batched runs:
// on a default and a Reference machine alike, every access of every entry
// point, in the order of the per-access loops (a copy's load before its
// store, a compare's first operand before its second), with the values,
// statistics and simulated time of the Reference machine. The default
// machine's runs are refused the lane at entry, so they leave no window
// open and count nothing.
func TestMonitorCallOrder(t *testing.T) {
	type result struct {
		sum    uint64
		stats  Stats
		cache  cache.Stats
		now    simtime.Cycles
		instrs uint64
	}
	var res [2]result
	for i, ref := range []bool{false, true} {
		m := MustNew(Config{MemBytes: 1 << 20, Reference: ref})
		mon := &recordingMonitor{}
		m.AttachMonitor(mon)
		sum, want := monitoredProgram(t, m)
		if !reflect.DeepEqual(mon.log, want) {
			n := min(len(mon.log), len(want))
			j := 0
			for j < n && mon.log[j] == want[j] {
				j++
			}
			t.Errorf("reference=%v: monitor saw %d accesses, want %d; first difference at %d",
				ref, len(mon.log), len(want), j)
		}
		res[i] = result{sum, m.Stats(), m.Cache.Stats(), m.Clock.Now(), m.Instructions()}
		if runs, fast, slow := m.BatchStats(); runs != 0 || fast != 0 || slow != 0 {
			t.Errorf("reference=%v: monitored runs counted in BatchStats: runs=%d fast=%d slow=%d",
				ref, runs, fast, slow)
		}
		if !laneClosed(m) {
			t.Errorf("reference=%v: a monitored run left a window open", ref)
		}
	}
	if res[0] != res[1] {
		t.Errorf("monitored default machine diverges from Reference:\ndefault:   %+v\nreference: %+v", res[0], res[1])
	}
}

// TestZeroBudgetRunsLeaveNoLaneState pins that a run refused the lane at
// entry — every run of a Reference machine and of a monitored default
// machine — opens no window and counts nothing in BatchStats, and that a
// monitor attached while windows are open is not bypassed by them.
func TestZeroBudgetRunsLeaveNoLaneState(t *testing.T) {
	ref := MustNew(Config{MemBytes: 1 << 20, Reference: true})
	want, lane := runBatchWorkload(t, ref)
	if lane != [3]uint64{} || !laneClosed(ref) {
		t.Errorf("Reference workload left lane state: BatchStats %v, windows closed %v", lane, laneClosed(ref))
	}

	m := MustNew(Config{MemBytes: 1 << 20})
	mon := &recordingMonitor{}
	m.AttachMonitor(mon)
	got, lane := runBatchWorkload(t, m)
	if lane != [3]uint64{} || !laneClosed(m) {
		t.Errorf("monitored workload left lane state: BatchStats %v, windows closed %v", lane, laneClosed(m))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("monitored workload diverges from Reference:\nmonitored: %+v\nreference: %+v", got, want)
	}
	if s := m.Stats(); uint64(len(mon.log)) != s.Loads+s.Stores {
		t.Errorf("monitor saw %d accesses of %d", len(mon.log), s.Loads+s.Stores)
	}

	// Windows left open by a batched run must not serve the next run once
	// a monitor is attached; after a detach the lane resumes.
	m = MustNew(Config{MemBytes: 1 << 20})
	if err := m.Run(func() error {
		const va = vm.VAddr(0x10000)
		if err := m.Kern.MapPages(va, 1); err != nil {
			return err
		}
		m.StoreRun(va, 8, 8, []uint64{1, 2, 3, 4})
		if !m.batch.a.pageOK || !m.batch.a.lineOK {
			t.Fatal("batched run left no window open")
		}
		runs, fast, slow := m.BatchStats()
		mon := &recordingMonitor{}
		m.AttachMonitor(mon)
		var out [4]uint64
		m.LoadRun(va, 8, 8, out[:])
		if out != [4]uint64{1, 2, 3, 4} {
			t.Errorf("monitored run read %v", out)
		}
		if !reflect.DeepEqual(mon.log, wantRun(false, va, 8, 8, 4)) {
			t.Errorf("monitor saw %v, want every load of the run", mon.log)
		}
		if r, f, s := m.BatchStats(); r != runs || f != fast || s != slow {
			t.Errorf("monitored run moved BatchStats from %v to %v", [3]uint64{runs, fast, slow}, [3]uint64{r, f, s})
		}
		if !laneClosed(m) {
			t.Error("monitored run left the earlier windows open")
		}
		m.DetachMonitors()
		m.LoadRun(va, 8, 8, out[:])
		if _, f, _ := m.BatchStats(); f == fast {
			t.Error("run after DetachMonitors did not resume the lane")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
