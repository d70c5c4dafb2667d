package safemem

import (
	"testing"

	"safemem/internal/vm"
)

func TestReportCallback(t *testing.T) {
	r := newTool(t, DefaultOptions())
	var streamed []BugKind
	r.tool.SetReportCallback(func(rep BugReport) { streamed = append(streamed, rep.Kind) })
	p := r.malloc(t, 64)
	r.m.Store8(p+64, 1)
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	_ = r.m.Load8(p)
	if len(streamed) != 2 || streamed[0] != BugOverflow || streamed[1] != BugFreedAccess {
		t.Fatalf("streamed = %v", streamed)
	}
	if len(r.tool.Reports()) != 2 {
		t.Fatal("Reports() out of sync with callback")
	}
}

func TestShutdownConfirmsAgedSuspects(t *testing.T) {
	o := leakOpts()
	r := newTool(t, o)
	// Build a stable group, then leak one object and run just long enough
	// for it to be flagged and watched — but NOT long enough for the
	// in-run confirmation to fire.
	var leaked uint64
	for i := 0; i < 500; i++ {
		r.m.Call(0x8888)
		p, err := r.alloc.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		r.m.Return()
		r.m.Compute(1000)
		if i == 120 {
			leaked = uint64(p)
			continue
		}
		if err := r.alloc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if r.tool.Stats().LeaksReported != 0 {
		t.Fatalf("leak already reported in-run; shorten the run")
	}
	st := r.tool.Stats()
	if st.SuspectsFlagged == 0 {
		t.Fatal("the leaked object was never flagged; lengthen the run")
	}
	// Let the watch age past the confirmation window without any
	// allocator activity (so no in-run check fires), then shut down.
	r.m.Compute(uint64(o.LeakConfirmTime) + 100_000)
	reports := r.tool.Shutdown()
	if len(reports) != 1 || reports[0].Kind != BugSLeak {
		t.Fatalf("shutdown reports = %v", reports)
	}
	if uint64(reports[0].BufferAddr) != leaked {
		t.Fatalf("shutdown reported %#x, want %#x", uint64(reports[0].BufferAddr), leaked)
	}
	if r.tool.Stats().WatchedLines != 0 {
		t.Fatal("watches remain after shutdown")
	}
	// Memory is left consistent: the leaked buffer reads back normally.
	_ = r.m.Load64(vm.VAddr(leaked))
	if n := len(r.tool.Reports()); n != 1 {
		t.Fatalf("post-shutdown access produced reports: %d", n)
	}
}

func TestShutdownQuietOnCleanRun(t *testing.T) {
	r := newTool(t, DefaultOptions())
	p := r.malloc(t, 64)
	r.m.Store64(p, 1)
	if reports := r.tool.Shutdown(); len(reports) != 0 {
		t.Fatalf("clean shutdown reported: %v", reports)
	}
	if r.tool.Stats().WatchedLines != 0 {
		t.Fatal("guard watches survived shutdown")
	}
}

// TestShutdownEndsArming pins that nothing is watched after Shutdown: the
// arming gate refuses every arm, so a new buffer's overflow goes unwatched
// and unreported, and freeing it arms no freed-extent watch either.
func TestShutdownEndsArming(t *testing.T) {
	r := newTool(t, DefaultOptions())
	r.tool.Shutdown()
	p := r.malloc(t, 64)
	r.m.Store8(p+64, 1)
	if st := r.tool.Stats(); st.WatchedLines != 0 {
		t.Fatalf("%d lines watched after shutdown", st.WatchedLines)
	}
	if n := len(r.tool.Reports()); n != 0 {
		t.Fatalf("%d reports after shutdown: %v", n, kinds(r.tool.Reports()))
	}
	if err := r.alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	if st := r.tool.Stats(); st.WatchedLines != 0 {
		t.Fatalf("%d lines watched after a free past shutdown", st.WatchedLines)
	}
	if err := r.tool.CheckWatchInvariants(); err != nil {
		t.Fatal(err)
	}
}
