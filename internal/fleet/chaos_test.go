package fleet

import (
	"testing"
	"time"

	"safemem/internal/machine"
)

func TestChaosPlanDeterministicAndExclusive(t *testing.T) {
	c := &Chaos{Seed: 7, PanicEvery: 5, SlowEvery: 5, FailEvery: 5}
	counts := map[chaosAction]int{}
	for h := uint64(0); h < 2000; h++ {
		a1 := c.plan(h, 1)
		a2 := c.plan(h, 1)
		if a1 != a2 {
			t.Fatalf("plan(%d) not deterministic: %v vs %v", h, a1, a2)
		}
		counts[a1]++
	}
	for _, a := range []chaosAction{chaosPanic, chaosSlow, chaosFail, chaosNone} {
		if counts[a] == 0 {
			t.Errorf("action %v never drawn across 2000 hashes", a)
		}
	}
	// Roughly 1/5 each (panic takes priority; fail and slow lose some
	// draws to it). Just pin the order of magnitude.
	if n := counts[chaosPanic]; n < 200 || n > 600 {
		t.Errorf("panic drawn %d/2000, want ~400", n)
	}
}

func TestChaosFailHealsAfterConfiguredAttempts(t *testing.T) {
	c := &Chaos{FailEvery: 1, FailAttempts: 2}
	h := uint64(42)
	if c.plan(h, 1) != chaosFail || c.plan(h, 2) != chaosFail {
		t.Fatal("attempts within FailAttempts did not fail")
	}
	if c.plan(h, 3) != chaosNone {
		t.Fatal("attempt past FailAttempts still failing")
	}
}

func TestNilChaosIsInert(t *testing.T) {
	var c *Chaos
	if c.plan(1, 1) != chaosNone {
		t.Fatal("nil chaos planned an action")
	}
}

// TestChaosCampaignEveryJobTerminal is the core of the chaos suite: a
// fleet under panic + transient-failure injection, running real
// simulations, must bring every admitted job to a terminal state, draw
// every injected fate at least once, and never repool a machine whose run
// panicked (pinned through the machine pool counters).
func TestChaosCampaignEveryJobTerminal(t *testing.T) {
	st0 := machine.PoolTotals()

	cfg := testConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	cfg.Chaos = &Chaos{Seed: 3, PanicEvery: 4, FailEvery: 5}
	f := Start(cfg)
	defer f.Close() //nolint:errcheck

	const jobs = 40
	var ids []uint64
	for i := 0; i < jobs; i++ {
		j, err := f.Submit(JobSpec{Seed: uint64(1000 + i), Tool: "both"})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}

	states := map[State]int{}
	retried := 0
	for _, id := range ids {
		j := waitTerminal(t, f, id)
		states[j.State]++
		if j.State == StateDone && j.Attempts > 1 {
			retried++
		}
	}
	if states[StateCrashed] == 0 {
		t.Error("chaos drew no panics across 40 jobs (PanicEvery=4)")
	}
	if retried == 0 {
		t.Error("no job healed through retry (FailEvery=5)")
	}
	if states[StateDone] == 0 {
		t.Error("no job completed")
	}
	for s, n := range states {
		if !s.Terminal() {
			t.Errorf("%d jobs left in non-terminal state %q", n, s)
		}
	}

	// Crash safety: every panicked attempt discarded its machine. Other
	// tests share the process-global counters, so pin a lower bound.
	st1 := machine.PoolTotals()
	if dropped := st1.Dropped - st0.Dropped; dropped < uint64(states[StateCrashed]) {
		t.Errorf("pool dropped %d machines, want ≥ %d (one per crashed job)",
			dropped, states[StateCrashed])
	}
	if st1.Released == st0.Released {
		t.Error("no machine was recycled for the clean jobs")
	}
}

// TestChaosSlowJobsTripWatchdog pins the deadline path end-to-end: a
// chaos-stalled simulation blows its deadline, cancellation lands between
// ops, and the job goes terminal timed-out.
func TestChaosSlowJobsTripWatchdog(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	cfg.JobDeadline = 50 * time.Millisecond
	cfg.WatchdogGrace = 300 * time.Millisecond
	cfg.Chaos = &Chaos{SlowEvery: 1, SlowFor: 2 * time.Second}
	f := Start(cfg)
	defer f.Close() //nolint:errcheck

	j0, err := f.Submit(JobSpec{Seed: 4242, Tool: "ml"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j := waitTerminal(t, f, j0.ID)
	if j.State != StateTimedOut {
		t.Fatalf("stalled job state = %q (err %q), want timed-out", j.State, j.Error)
	}
}
