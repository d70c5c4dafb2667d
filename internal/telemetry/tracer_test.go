package telemetry

import (
	"testing"

	"safemem/internal/simtime"
)

func tracedRegistry(max int) (*Registry, *simtime.Clock) {
	r := NewRegistry("", Config{TraceEnabled: true, MaxTraceEvents: max})
	var clock simtime.Clock
	r.AttachClock(&clock)
	return r, &clock
}

func TestTracerNesting(t *testing.T) {
	r, clock := tracedRegistry(0)
	tr := r.Tracer()

	outer := tr.Begin("kernel", "WatchMemory", KV("bytes", 64))
	clock.Advance(10)
	inner := tr.Begin("cache", "flush-line")
	clock.Advance(5)
	inner.End()
	tr.Instant("memctrl", "ecc-fault")
	clock.Advance(5)
	outer.End()

	evs := tr.Events()
	want := []struct {
		phase Phase
		name  string
		time  simtime.Cycles
	}{
		{PhaseBegin, "WatchMemory", 0},
		{PhaseBegin, "flush-line", 10},
		{PhaseEnd, "flush-line", 15},
		{PhaseInstant, "ecc-fault", 15},
		{PhaseEnd, "WatchMemory", 20},
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %+v", evs)
	}
	for i, w := range want {
		if evs[i].Phase != w.phase || evs[i].Name != w.name || evs[i].Time != w.time {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
	if evs[0].Args[0] != (Arg{"bytes", 64}) {
		t.Fatalf("args = %+v", evs[0].Args)
	}
}

func TestTracerDisabledIsNoop(t *testing.T) {
	r := NewRegistry("", Config{}) // tracing off
	var clock simtime.Clock
	r.AttachClock(&clock)
	tr := r.Tracer()
	sp := tr.Begin("a", "b")
	tr.Instant("a", "c")
	sp.End()
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}

	// A nil tracer (component never registered) is equally safe.
	var nilTr *Tracer
	nsp := nilTr.Begin("a", "b")
	nilTr.Instant("a", "c")
	nsp.End()
}

func TestTracerCapKeepsBalance(t *testing.T) {
	r, clock := tracedRegistry(6)
	tr := r.Tracer()
	var open []Span
	for i := 0; i < 10; i++ {
		open = append(open, tr.Begin("c", "span"))
		clock.Advance(1)
	}
	for i := len(open) - 1; i >= 0; i-- {
		open[i].End()
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops at the cap")
	}
	depth := 0
	for _, ev := range tr.Events() {
		switch ev.Phase {
		case PhaseBegin:
			depth++
		case PhaseEnd:
			depth--
		}
		if depth < 0 {
			t.Fatal("End without Begin")
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced trace: depth %d", depth)
	}
	if n := len(tr.Events()); n > 6 {
		t.Fatalf("cap exceeded: %d events", n)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	r, clock := tracedRegistry(0)
	tr := r.Tracer()
	tr.Begin("a", "outer")
	clock.Advance(3)
	tr.Begin("a", "inner") // both abandoned, as after a program abort
	r.Finish()
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[2].Phase != PhaseEnd || evs[3].Phase != PhaseEnd {
		t.Fatalf("open spans not closed: %+v", evs)
	}
}

func TestTracerDisabledNoAllocs(t *testing.T) {
	disabled := NewRegistry("", Config{}) // tracing off
	var clock simtime.Clock
	disabled.AttachClock(&clock)
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{
		{"nil", nil},
		{"disabled", disabled.Tracer()},
	} {
		tr := tc.tr
		if avg := testing.AllocsPerRun(100, func() {
			tr.Begin("cache", "flush-line", KV("line", 64)).End()
		}); avg != 0 {
			t.Errorf("%s tracer: Begin+End allocates %.1f objects, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			tr.Instant("inject", "plant", KV("group", 8), KV("bit", 3))
		}); avg != 0 {
			t.Errorf("%s tracer: Instant allocates %.1f objects, want 0", tc.name, avg)
		}
	}
}

func TestTracerArgsCopied(t *testing.T) {
	r, _ := tracedRegistry(0)
	tr := r.Tracer()
	args := []Arg{KV("line", 1)}
	sp := tr.Begin("cache", "flush-line", args...)
	args[0] = KV("mutated", 99)
	endArgs := []Arg{KV("n", 2)}
	sp.End(endArgs...)
	endArgs[0] = KV("mutated", 99)
	instArgs := []Arg{KV("group", 3)}
	tr.Instant("inject", "plant", instArgs...)
	instArgs[0] = KV("mutated", 99)

	evs := tr.Events()
	want := []Arg{KV("line", 1), KV("n", 2), KV("group", 3)}
	if len(evs) != len(want) {
		t.Fatalf("events = %+v", evs)
	}
	for i, w := range want {
		if len(evs[i].Args) != 1 || evs[i].Args[0] != w {
			t.Errorf("event %d args = %+v, want [%+v]", i, evs[i].Args, w)
		}
	}
}

// TestTracerAttachConcurrent pins that Registry.AttachClock does not race
// with tracer call sites on another goroutine; it needs -race to bite.
func TestTracerAttachConcurrent(t *testing.T) {
	r := NewRegistry("", Config{TraceEnabled: true})
	tr := r.Tracer()
	var clock simtime.Clock
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.AttachClock(&clock)
	}()
	for i := 0; i < 1000; i++ {
		if tr.Enabled() {
			tr.Begin("kernel", "WatchMemory", KV("i", uint64(i))).End()
		}
		tr.Instant("inject", "plant")
	}
	<-done
	if !tr.Enabled() {
		t.Fatal("tracer not enabled after AttachClock")
	}
}
