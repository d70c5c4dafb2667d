package safemem

import (
	"errors"
	"reflect"
	"testing"

	"safemem/internal/heap"
	"safemem/internal/machine"
	"safemem/internal/simtime"
	"safemem/internal/vm"
)

type testRig struct {
	m     *machine.Machine
	alloc *heap.Allocator
	tool  *Tool
}

func newTool(t *testing.T, opts Options) *testRig {
	t.Helper()
	m, err := machine.New(machine.Config{MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := heap.New(m, HeapOptions(opts.DetectCorruption || opts.DetectUninitRead))
	if err != nil {
		t.Fatal(err)
	}
	tool, err := Attach(m, alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{m: m, alloc: alloc, tool: tool}
}

func (r *testRig) malloc(t *testing.T, size uint64) vm.VAddr {
	t.Helper()
	p, err := r.alloc.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func kinds(rs []BugReport) []BugKind {
	out := make([]BugKind, len(rs))
	for i, r := range rs {
		out[i] = r.Kind
	}
	return out
}

func TestAttachValidation(t *testing.T) {
	m := machine.MustNew(machine.Config{MemBytes: 4 << 20})
	plain := heap.MustNew(m, heap.Options{}) // 8-byte aligned
	if _, err := Attach(m, plain, DefaultOptions()); err == nil {
		t.Fatal("attach to unaligned allocator accepted")
	}
	aligned := heap.MustNew(m, heap.Options{Align: 64, Base: 0x4000000})
	if _, err := Attach(m, aligned, DefaultOptions()); err == nil {
		t.Fatal("corruption detection without padding accepted")
	}
}

func TestBufferOverflowDetected(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 100)
	// Stay in bounds: no report.
	r.m.Store8(p+99, 1)
	if len(r.tool.Reports()) != 0 {
		t.Fatalf("in-bounds access reported: %v", r.tool.Reports())
	}
	// One byte past the rounded size lands in the guard line.
	r.m.Store8(p+vm.VAddr(128), 0xee)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugOverflow {
		t.Fatalf("reports = %v", kinds(reports))
	}
	if reports[0].BufferAddr != p || reports[0].BufferSize != 100 {
		t.Fatalf("report buffer = %#x/%d", uint64(reports[0].BufferAddr), reports[0].BufferSize)
	}
	if !reports[0].AccessWrite {
		t.Fatal("store not identified as write")
	}
	if reports[0].Addr != p+128 {
		t.Fatalf("fault address = %#x, want %#x", uint64(reports[0].Addr), uint64(p+128))
	}
}

func TestBufferUnderflowDetected(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	_ = r.m.Load8(p - 1)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugUnderflow {
		t.Fatalf("reports = %v", kinds(reports))
	}
	if reports[0].AccessWrite {
		t.Fatal("load identified as write")
	}
}

func TestOverflowReportedOncePerPad(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	r.m.Store8(p+64, 1)
	r.m.Store8(p+65, 1) // same tripped (now disabled) pad
	if n := len(r.tool.Reports()); n != 1 {
		t.Fatalf("reports = %d, want 1", n)
	}
}

func TestFreedMemoryAccessDetected(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	r.m.Store64(p, 0x1234)
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	_ = r.m.Load64(p)
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugFreedAccess {
		t.Fatalf("reports = %v", kinds(reports))
	}
}

func TestReallocationDisablesFreedWatch(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	q := r.malloc(t, 64) // first fit reuses the extent
	if q != p {
		t.Fatalf("allocator did not reuse extent (%#x vs %#x)", uint64(q), uint64(p))
	}
	r.m.Store64(q, 7)
	if got := r.m.Load64(q); got != 7 {
		t.Fatalf("reallocated memory = %d", got)
	}
	if len(r.tool.Reports()) != 0 {
		t.Fatalf("reuse after realloc reported: %v", r.tool.Reports())
	}
}

func TestStopOnBugAborts(t *testing.T) {
	opts := DefaultOptions()
	opts.StopOnBug = true
	r := newTool(t, opts)
	p := r.malloc(t, 64)
	err := r.m.Run(func() error {
		r.m.Store8(p+64, 1)
		return nil
	})
	var abort *machine.ProgramAbort
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want ProgramAbort", err)
	}
}

func TestNormalExecutionNoFalseCorruption(t *testing.T) {
	r := newTool(t, DefaultOptions())
	var ptrs []vm.VAddr
	for i := 0; i < 64; i++ {
		p := r.malloc(t, uint64(16+i*8))
		r.m.Memset(p, byte(i), uint64(16+i*8))
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if i%2 == 0 {
			if err := r.alloc.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range ptrs {
		if i%2 == 1 {
			_ = r.m.Load8(p)
		}
	}
	if len(r.tool.Reports()) != 0 {
		t.Fatalf("clean run produced reports: %v", r.tool.Reports())
	}
}

// leakOpts returns leak-only options with short, test-friendly windows.
func leakOpts() Options {
	o := DefaultOptions()
	o.DetectCorruption = false
	o.WarmupTime = simtime.FromMicroseconds(50)
	o.CheckingPeriod = simtime.FromMicroseconds(20)
	o.ALeakLiveThreshold = 20
	o.ALeakRecentWindow = simtime.FromMicroseconds(200)
	o.SLeakStableTime = simtime.FromMicroseconds(100)
	o.LeakConfirmTime = simtime.FromMicroseconds(300)
	return o
}

func TestALeakDetected(t *testing.T) {
	r := newTool(t, leakOpts())
	// A group that grows forever and is never freed or accessed.
	for i := 0; i < 2000; i++ {
		r.m.Call(0xbad0)
		p := r.malloc(t, 48)
		r.m.Return()
		_ = p // never freed, never accessed again
		r.m.Compute(2000)
		if len(r.tool.Reports()) > 0 {
			break
		}
	}
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugALeak {
		t.Fatalf("reports = %v", kinds(reports))
	}
}

func TestInitTimeWorkingSetNotFlagged(t *testing.T) {
	r := newTool(t, leakOpts())
	// Allocate a large working set up front, then stop growing it but keep
	// *using* it: a never-freed group that is no longer growing and whose
	// objects are accessed is not a continuous leak (Section 3.2.2).
	var ws []vm.VAddr
	for i := 0; i < 30; i++ {
		r.m.Call(0x1111)
		ws = append(ws, r.malloc(t, 48))
		r.m.Return()
	}
	for i := 0; i < 2000; i++ {
		r.m.Call(0x2222)
		p := r.malloc(t, 16)
		r.m.Return()
		r.m.Compute(1000)
		// Program uses its working set.
		_ = r.m.Load8(ws[i%len(ws)])
		if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.tool.Reports()) != 0 {
		t.Fatalf("init-time working set reported: %v", r.tool.Reports())
	}
}

func TestSLeakDetectedAndPruningExonerates(t *testing.T) {
	r := newTool(t, leakOpts())
	// Phase 1: establish a stable lifetime for the group.
	var leaked, touched vm.VAddr
	for i := 0; i < 400; i++ {
		r.m.Call(0x3333)
		p := r.malloc(t, 32)
		r.m.Return()
		r.m.Compute(1000)
		switch i {
		case 100:
			leaked = p // the one the program forgets to free
		case 101:
			touched = p // long-lived but periodically accessed
		default:
			if err := r.alloc.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 && touched != 0 {
			_ = r.m.Load64(touched) // program still uses this one
		}
	}
	// Phase 2: keep the program allocating so checks keep firing.
	for i := 0; i < 3000 && r.tool.Stats().LeaksReported == 0; i++ {
		r.m.Call(0x3333)
		p := r.malloc(t, 32)
		r.m.Return()
		r.m.Compute(1000)
		if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
		if touched != 0 {
			_ = r.m.Load64(touched)
		}
	}
	reports := r.tool.Reports()
	if len(reports) != 1 || reports[0].Kind != BugSLeak {
		t.Fatalf("reports = %v", kinds(reports))
	}
	if reports[0].BufferAddr != leaked {
		t.Fatalf("reported %#x, want the leaked object %#x", uint64(reports[0].BufferAddr), uint64(leaked))
	}
	st := r.tool.Stats()
	if st.SuspectsPruned == 0 {
		t.Fatal("the touched long-lived object should have been pruned")
	}
	if st.SuspectsFlagged < 2 {
		t.Fatalf("SuspectsFlagged = %d, want ≥ 2", st.SuspectsFlagged)
	}
}

func TestNoPruningReportsImmediately(t *testing.T) {
	// Table 5's "before pruning" configuration: every suspect becomes a
	// report, including ones the program still uses.
	o := leakOpts()
	o.PruneWithECC = false
	r := newTool(t, o)
	var touched vm.VAddr
	for i := 0; i < 3000 && r.tool.Stats().LeaksReported == 0; i++ {
		r.m.Call(0x4444)
		p := r.malloc(t, 32)
		r.m.Return()
		r.m.Compute(1000)
		if i == 50 {
			touched = p // never freed, but periodically accessed: NOT a leak
		} else if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
		if touched != 0 && i%5 == 0 {
			_ = r.m.Load64(touched)
		}
	}
	if r.tool.Stats().LeaksReported == 0 {
		t.Fatal("no report despite disabled pruning")
	}
	if r.tool.Stats().SuspectsPruned != 0 {
		t.Fatal("pruning happened despite being disabled")
	}
}

func TestPruningPreventsFalsePositive(t *testing.T) {
	// Same program as above but with pruning: the touched object must NOT
	// be reported.
	r := newTool(t, leakOpts())
	var touched vm.VAddr
	for i := 0; i < 3000; i++ {
		r.m.Call(0x4444)
		p := r.malloc(t, 32)
		r.m.Return()
		r.m.Compute(1000)
		if i == 50 {
			touched = p
		} else if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
		if touched != 0 && i%5 == 0 {
			_ = r.m.Load64(touched)
		}
	}
	if n := r.tool.Stats().LeaksReported; n != 0 {
		t.Fatalf("false positives reported: %d (%v)", n, kinds(r.tool.Reports()))
	}
	if r.tool.Stats().SuspectsPruned == 0 {
		t.Fatal("expected at least one pruned suspect")
	}
}

func TestFreeingSuspectExoneratesIt(t *testing.T) {
	r := newTool(t, leakOpts())
	var slow vm.VAddr
	for i := 0; i < 1200; i++ {
		r.m.Call(0x5555)
		p := r.malloc(t, 32)
		r.m.Return()
		r.m.Compute(1000)
		if i == 50 {
			slow = p
		} else if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
		if i == 500 {
			// The program finally frees it — while it is watched, but
			// before the confirmation window elapses.
			if err := r.alloc.Free(slow); err != nil {
				t.Fatal(err)
			}
			slow = 0
		}
	}
	if n := r.tool.Stats().LeaksReported; n != 0 {
		t.Fatalf("freed object reported as leak: %v", kinds(r.tool.Reports()))
	}
}

// TestReleasedToolRerunsIdentically pins the spare-reuse path: a tool and
// allocator released on a machine are reused by the next run on it after
// Recycle, and that run reports exactly what the first one did — leaks,
// overflows and freed-buffer accesses, with their times and latencies.
func TestReleasedToolRerunsIdentically(t *testing.T) {
	m := machine.MustNew(machine.Config{MemBytes: 16 << 20})
	opts := DefaultOptions()
	opts.WarmupTime, opts.CheckingPeriod, opts.ALeakLiveThreshold = 0, 20_000, 8
	opts.LeakConfirmTime = 40_000
	run := func() (*Tool, *heap.Allocator, []BugReport, Stats) {
		alloc := heap.MustNew(m, HeapOptions(true))
		tool, err := Attach(m, alloc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(func() error {
			for i := 0; i < 40; i++ {
				m.Call(0x5150)
				if _, err := alloc.Malloc(48); err != nil {
					return err
				}
				m.Return()
				m.Compute(5_000)
			}
			p, err := alloc.Malloc(64)
			if err != nil {
				return err
			}
			m.Store8(p+64, 1)
			if err := alloc.Free(p); err != nil {
				return err
			}
			m.Load8(p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tool.Shutdown()
		return tool, alloc, tool.Reports(), tool.Stats()
	}
	tool1, alloc1, reps1, st1 := run()
	if len(reps1) < 3 {
		t.Fatalf("first run reported %v, want a leak, an overflow and a freed access", kinds(reps1))
	}
	tool1.Release()
	alloc1.Release()
	m.Recycle()
	tool2, alloc2, reps2, st2 := run()
	if tool2 != tool1 || alloc2 != alloc1 {
		t.Fatal("the released tool and allocator were not reused")
	}
	if !reflect.DeepEqual(reps2, reps1) || st2 != st1 {
		t.Fatalf("rerun on reused storage diverges:\nfirst:  %v %+v\nsecond: %v %+v", reps1, st1, reps2, st2)
	}
}
