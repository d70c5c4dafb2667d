package simtime

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock not at 0")
	}
	c.Advance(100)
	c.AdvanceInstr(5)
	if c.Now() != 100+5*CostInstr {
		t.Fatalf("Now = %d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestConversions(t *testing.T) {
	if got := Cycles(2400).Microseconds(); got != 1.0 {
		t.Errorf("2400 cycles = %vµs", got)
	}
	if got := Cycles(2400 * 1e6).Seconds(); got != 1.0 {
		t.Errorf("seconds = %v", got)
	}
	if FromMicroseconds(2.5) != 6000 {
		t.Errorf("FromMicroseconds(2.5) = %d", FromMicroseconds(2.5))
	}
}

func TestStringUnits(t *testing.T) {
	cases := []struct {
		c    Cycles
		want string
	}{
		{100, "cy"},
		{4800, "µs"},
		{4_800_000, "ms"},
		{4_800_000_000, "s"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); !strings.Contains(got, tc.want) {
			t.Errorf("%d cycles -> %q, want unit %q", tc.c, got, tc.want)
		}
	}
}

func TestQuickConversionRoundTrip(t *testing.T) {
	f := func(us uint16) bool {
		c := FromMicroseconds(float64(us))
		return c.Microseconds() == float64(us)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostOrdering(t *testing.T) {
	// Sanity of the cost model's internal ordering.
	if CostCacheHit >= CostCacheMiss {
		t.Error("hit not cheaper than miss")
	}
	if CostSyscall <= CostCacheMiss {
		t.Error("syscall not dearer than a miss")
	}
	if CostInterrupt <= CostSyscall {
		t.Error("ECC interrupt delivery should exceed a bare syscall")
	}
}

func TestWakeHook(t *testing.T) {
	var c Clock
	var fired []Cycles
	c.SetWake(100, func(now Cycles) Cycles {
		fired = append(fired, now)
		return now + 100
	})
	c.Advance(50)
	if len(fired) != 0 {
		t.Fatalf("woke early at %v", fired)
	}
	c.Advance(50)  // now=100: fire, rearm at 200
	c.Advance(250) // now=350: the 200 deadline fires once, late, at 350
	if want := []Cycles{100, 350}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	c.ClearWake()
	c.Advance(1000)
	if len(fired) != 2 {
		t.Fatalf("fired after ClearWake: %v", fired)
	}
}

func TestWakeHookOneShot(t *testing.T) {
	var c Clock
	n := 0
	// Returning a wake time not after now uninstalls the hook.
	c.SetWake(10, func(now Cycles) Cycles { n++; return now })
	c.Advance(100)
	c.Advance(100)
	if n != 1 {
		t.Fatalf("one-shot wake fired %d times", n)
	}
}

func TestMultipleTimers(t *testing.T) {
	var c Clock
	var order []string
	c.NewTimer(100, func(now Cycles) Cycles {
		order = append(order, "a")
		return now + 100
	})
	c.NewTimer(150, func(now Cycles) Cycles {
		order = append(order, "b")
		return now + 150
	})
	// 100:a 150:b 200:a 300:a+b (a first: registration order).
	for i := 0; i < 6; i++ {
		c.Advance(50)
	}
	want := "a b a a b"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("fire order %q, want %q", got, want)
	}
}

func TestTimerStopReprogram(t *testing.T) {
	var c Clock
	n := 0
	tm := c.NewTimer(10, func(now Cycles) Cycles { n++; return now + 10 })
	c.Advance(10)
	tm.Stop()
	if tm.Active() {
		t.Fatal("stopped timer still active")
	}
	c.Advance(100)
	if n != 1 {
		t.Fatalf("stopped timer fired: n=%d", n)
	}
	tm.Reprogram(c.Now() + 5)
	c.Advance(5)
	if n != 2 || !tm.Active() {
		t.Fatalf("reprogrammed timer did not fire: n=%d active=%v", n, tm.Active())
	}
}

func TestClearWakeSparesTimers(t *testing.T) {
	var c Clock
	legacy, timer := 0, 0
	c.SetWake(10, func(now Cycles) Cycles { legacy++; return now + 10 })
	c.NewTimer(10, func(now Cycles) Cycles { timer++; return now + 10 })
	c.Advance(10)
	c.ClearWake() // must clear only the legacy slot
	c.Advance(10)
	if legacy != 1 || timer != 2 {
		t.Fatalf("legacy=%d timer=%d, want 1, 2", legacy, timer)
	}
	// SetWake reuses the legacy slot rather than stacking a new timer.
	c.SetWake(c.Now()+10, func(now Cycles) Cycles { legacy++; return now + 10 })
	c.Advance(10)
	if legacy != 2 || timer != 3 {
		t.Fatalf("after re-set: legacy=%d timer=%d, want 2, 3", legacy, timer)
	}
}

func TestTimerHookMayAdvanceClock(t *testing.T) {
	// A hook that charges cycles (like the scrub daemon) must not recurse,
	// and deadlines it crosses must still fire before control returns.
	var c Clock
	var fired []string
	c.NewTimer(100, func(now Cycles) Cycles {
		fired = append(fired, "scrub")
		c.Advance(60) // crosses the 150 deadline below
		return c.Now() + 100
	})
	c.NewTimer(150, func(now Cycles) Cycles {
		fired = append(fired, "sample")
		return now + 1000
	})
	c.Advance(100)
	if want := "scrub sample"; strings.Join(fired, " ") != want {
		t.Fatalf("fired %v, want %q", fired, want)
	}
	if c.Now() != 160 {
		t.Fatalf("Now = %d, want 160", c.Now())
	}
}

func TestStaleWakeBound(t *testing.T) {
	// Stop is O(1) and leaves wakeAt as a stale lower bound. Crossing the
	// stale deadline must fire nothing, and a later timer must still fire
	// exactly on time afterwards.
	var c Clock
	early := 0
	late := 0
	tm := c.NewTimer(10, func(now Cycles) Cycles { early++; return now })
	c.NewTimer(100, func(now Cycles) Cycles { late++; return now })
	tm.Stop()
	c.Advance(10) // stale bound crossed: spurious sweep, nothing fires
	if early != 0 || late != 0 {
		t.Fatalf("fired early=%d late=%d at stale bound", early, late)
	}
	c.Advance(89)
	if late != 0 {
		t.Fatal("late timer fired before its deadline")
	}
	c.Advance(1)
	if early != 0 || late != 1 {
		t.Fatalf("early=%d late=%d, want 0, 1", early, late)
	}
	// Reprogram to a later deadline likewise leaves a stale earlier bound.
	tm.Reprogram(c.Now() + 10)
	tm.Reprogram(c.Now() + 50)
	c.Advance(10)
	if early != 0 {
		t.Fatal("fired at the abandoned earlier deadline")
	}
	c.Advance(40)
	if early != 1 {
		t.Fatalf("early=%d, want 1", early)
	}
}

func TestTimerRegisteredInsideHook(t *testing.T) {
	var c Clock
	n := 0
	c.NewTimer(10, func(now Cycles) Cycles {
		c.NewTimer(now+5, func(now Cycles) Cycles { n++; return now })
		return now // one-shot
	})
	c.Advance(10)
	if n != 0 {
		t.Fatal("inner timer fired before its deadline")
	}
	c.Advance(5)
	if n != 1 {
		t.Fatalf("inner timer fired %d times, want 1", n)
	}
}

// TestHeadroom pins the bound the batched access fast lane builds on: a
// single Advance of at most Headroom() cycles can never fire a wake, and
// the bound stays conservative (never overshooting a live deadline) even
// when stopped timers leave the cached wake bound stale.
func TestHeadroom(t *testing.T) {
	c := &Clock{}
	if _, bounded := c.Headroom(); bounded {
		t.Fatal("clock with no timers reports a bounded headroom")
	}
	var fired []Cycles
	c.NewTimer(100, func(now Cycles) Cycles { fired = append(fired, now); return 0 })
	h, bounded := c.Headroom()
	if !bounded {
		t.Fatal("armed timer reports unbounded headroom")
	}
	c.Advance(h)
	if len(fired) != 0 {
		t.Fatalf("Advance(Headroom()) fired the timer at %v", fired)
	}
	for len(fired) == 0 {
		c.Advance(1)
	}
	if fired[0] != 100 || c.Now() != 100 {
		t.Fatalf("timer fired at %v (now %v), want exactly 100", fired, c.Now())
	}
	// A stopped earlier timer leaves wakeAt as a stale lower bound; the
	// headroom may shrink batches but must still respect the live deadline.
	stopped := c.NewTimer(c.Now()+50, func(now Cycles) Cycles { return 0 })
	c.NewTimer(c.Now()+200, func(now Cycles) Cycles { fired = append(fired, now); return 0 })
	stopped.Stop()
	h, bounded = c.Headroom()
	if !bounded || h >= 200 {
		t.Fatalf("headroom %v (bounded=%v) overshoots the live +200 deadline", h, bounded)
	}
	c.Advance(h)
	if len(fired) != 1 {
		t.Fatalf("stale-bound Advance(Headroom()) fired a wake: %v", fired)
	}
}

// TestRearmAfterRestore pins Clock.Rearm: a timer the restore dropped goes
// back on the end of the list, firing after a timer registered before it,
// and is the same Timer; one still registered is not reused, so it cannot
// end up in the list twice.
func TestRearmAfterRestore(t *testing.T) {
	c := &Clock{}
	img := c.CaptureImage()
	var order []string
	hook := func(name string) func(Cycles) Cycles {
		return func(Cycles) Cycles { order = append(order, name); return 0 }
	}
	spare := c.NewTimer(10, hook("old"))
	c.RestoreImage(img)
	c.NewTimer(100, hook("first"))
	if got := c.Rearm(spare, 100, hook("rearmed")); got != spare {
		t.Fatal("Rearm did not reuse a dropped timer")
	}
	c.Advance(100)
	if want := []string{"first", "rearmed"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if got := c.Rearm(spare, 200, hook("again")); got == spare {
		t.Fatal("Rearm reused a timer still registered")
	}
	if got := c.Rearm(nil, 300, hook("nil")); got == nil || len(c.timers) != 4 {
		t.Fatalf("Rearm(nil) registered %d timers, want 4", len(c.timers))
	}
}
