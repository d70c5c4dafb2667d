package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"safemem/internal/machine"
)

// poolDelta runs f and returns how far the machine-pool counters moved.
func poolDelta(t *testing.T, f func()) (released, dropped uint64) {
	t.Helper()
	st0 := machine.PoolTotals()
	f()
	mv := poolMoves(st0)
	return mv.Released, mv.Dropped
}

// TestPanickedMachineNeverRepooled pins the fleet's crash-safety contract
// at the executor level: when a panic unwinds out of ExecuteEnv into a
// recovering caller (exactly what a fleet worker's panic isolation does),
// the in-flight machine must be dropped, never recycled into the pool.
func TestPanickedMachineNeverRepooled(t *testing.T) {
	s := Generate(1)
	released, dropped := poolDelta(t, func() {
		defer func() {
			if v := recover(); v == nil {
				t.Fatal("hook panic did not propagate out of ExecuteEnv")
			}
		}()
		ExecuteEnv(s, CfgBoth, Env{Hook: func(op int) error {
			if op == len(s.Ops)/2 {
				panic("chaos: injected worker panic")
			}
			return nil
		}})
	})
	if released != 0 {
		t.Fatalf("panicked run released %d machine(s) into the pool", released)
	}
	if dropped != 1 {
		t.Fatalf("panicked run dropped %d machine(s), want exactly 1", dropped)
	}
}

// TestErroredRunNeverRepooled pins the same property for runs that
// terminate with an error instead of a panic (hook-injected here; a kernel
// panic or segfault takes the same res.Err path).
func TestErroredRunNeverRepooled(t *testing.T) {
	s := Generate(2)
	bang := errors.New("chaos: injected transient failure")
	released, dropped := poolDelta(t, func() {
		res, err := ExecuteEnv(s, CfgBoth, Env{Hook: func(op int) error { return bang }})
		if err != nil {
			t.Fatalf("ExecuteEnv: %v", err)
		}
		if !errors.Is(res.Err, bang) {
			t.Fatalf("res.Err = %v, want the injected failure", res.Err)
		}
	})
	if released != 0 {
		t.Fatalf("errored run released %d machine(s) into the pool", released)
	}
	if dropped != 1 {
		t.Fatalf("errored run dropped %d machine(s), want exactly 1", dropped)
	}
}

// TestCleanRunRepooled is the counter-positive: a normally terminating run
// does recycle its machine (otherwise the counters above prove nothing).
// It holds under every tool configuration, since one that lost pooled
// reuse would pay a machine build per scenario and run 10–100× slower.
func TestCleanRunRepooled(t *testing.T) {
	s := Generate(3)
	for _, cfg := range AllConfigs {
		released, dropped := poolDelta(t, func() {
			res, err := ExecuteEnv(s, cfg, Env{})
			if err != nil || res.Err != nil {
				t.Fatalf("%s: clean run failed: err=%v res.Err=%v", cfg, err, res.Err)
			}
		})
		if released != 1 {
			t.Errorf("%s: clean run released %d machine(s), want 1", cfg, released)
		}
		if dropped != 0 {
			t.Errorf("%s: clean run dropped %d machine(s), want 0", cfg, dropped)
		}
	}
}

// TestExecuteEnvContextCancel pins the deadline integration point: a
// cancelled context terminates the run between ops with the context's
// error, and the half-finished machine is discarded.
func TestExecuteEnvContextCancel(t *testing.T) {
	s := Generate(4)
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	released, dropped := poolDelta(t, func() {
		res, err := ExecuteEnv(s, CfgBoth, Env{
			Ctx: ctx,
			Hook: func(op int) error {
				if op == 2 && !fired {
					fired = true
					cancel()
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("ExecuteEnv: %v", err)
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("res.Err = %v, want context.Canceled", res.Err)
		}
	})
	if !fired {
		t.Fatal("scenario too short: cancel hook never ran")
	}
	if released != 0 || dropped != 1 {
		t.Fatalf("cancelled run released=%d dropped=%d, want 0/1", released, dropped)
	}
}

// TestPassiveEnvHooksPreserveDeterminism pins that a context that never
// fires and a hook that stays passive leave the simulated result
// bit-identical to a bare environment — the serving layer's observation-
// only contract.
func TestPassiveEnvHooksPreserveDeterminism(t *testing.T) {
	s := Generate(5)
	bare, err := ExecuteEnv(s, CfgBoth, Env{})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := ExecuteEnv(s, CfgBoth, Env{
		Ctx:  context.Background(),
		Hook: func(op int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != hooked.Cycles || len(bare.Reports) != len(hooked.Reports) {
		t.Fatalf("passive hooks changed the run: cycles %d vs %d, reports %d vs %d",
			bare.Cycles, hooked.Cycles, len(bare.Reports), len(hooked.Reports))
	}
	for i := range bare.Reports {
		if bare.Reports[i].String() != hooked.Reports[i].String() {
			t.Fatalf("report %d differs:\n%s\nvs\n%s", i, bare.Reports[i], hooked.Reports[i])
		}
	}
}

// TestHookErrorMentionsNoOracleNoise double-checks that hook-injected
// failures surface as ExecResult.Err (a crash verdict at the oracle), not
// as silent truncation.
func TestHookErrorSurfacesAsCrash(t *testing.T) {
	s := Generate(6)
	res, err := ExecuteEnv(s, CfgMC, Env{Hook: func(op int) error {
		return errors.New("injected")
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := Judge(s, CfgMC, res)
	found := false
	for _, vio := range v.Violations {
		if vio.Kind == ViolationCrash && strings.Contains(vio.Detail, "injected") {
			found = true
		}
	}
	if !found {
		t.Fatalf("hook error did not produce a crash violation: %+v", v.Violations)
	}
}
