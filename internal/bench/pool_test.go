package bench

import (
	"testing"

	"safemem/internal/apps"
	"safemem/internal/machine"
	"safemem/internal/telemetry"
)

// poolDelta runs f and returns how far the machine-pool counters moved.
func poolDelta(f func()) machine.PoolStats {
	st0 := machine.PoolTotals()
	f()
	st := machine.PoolTotals()
	return machine.PoolStats{Released: st.Released - st0.Released, Dropped: st.Dropped - st0.Dropped, Built: st.Built - st0.Built}
}

// TestPanickedMachineNeverRepooled pins the bench-side crash-safety
// contract: a run whose simulated program panics out of Machine.Run into a
// recovering caller must drop its machine — the pool never recycles a
// machine in an unknown mid-run state.
func TestPanickedMachineNeverRepooled(t *testing.T) {
	runHook = func() { panic("chaos: injected worker panic") }
	defer func() { runHook = nil }()

	mv := poolDelta(func() {
		defer func() {
			if v := recover(); v == nil {
				t.Fatal("injected panic did not propagate out of bench.Run")
			}
		}()
		Run("ypserv1", ToolNone, apps.Config{Seed: 1, Scale: 1})
	})
	if mv.Released != 0 {
		t.Fatalf("panicked run released %d machine(s) into the pool", mv.Released)
	}
	if mv.Dropped != 1 {
		t.Fatalf("panicked run dropped %d machine(s), want exactly 1", mv.Dropped)
	}
}

// TestCleanRunRepooled is the counter-positive: a normal run recycles its
// machine exactly once.
func TestCleanRunRepooled(t *testing.T) {
	mv := poolDelta(func() {
		res, err := Run("ypserv1", ToolNone, apps.Config{Seed: 1, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("clean run terminated abnormally: %v", res.Err)
		}
	})
	if mv.Released != 1 {
		t.Fatalf("clean run released %d machine(s), want 1", mv.Released)
	}
	if mv.Dropped != 0 {
		t.Fatalf("clean run dropped %d machine(s), want 0", mv.Dropped)
	}
}

// TestTelemetryRunNotPooled pins that a run carrying its own telemetry
// registry never touches the pool: the registry is that run's output, and
// Recycle keeps a machine's registry, so the machine must not be reused.
func TestTelemetryRunNotPooled(t *testing.T) {
	mcfg := machine.DefaultConfig()
	mcfg.Telemetry = telemetry.NewRegistry("ypserv1/none", telemetry.Config{})
	mv := poolDelta(func() {
		res, err := RunSpec(Spec{App: "ypserv1", Tool: ToolNone, Cfg: apps.Config{Seed: 1, Scale: 1}, Machine: mcfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Registry != mcfg.Telemetry {
			t.Fatal("run did not report into its own registry")
		}
	})
	if mv != (machine.PoolStats{}) {
		t.Fatalf("telemetry run moved the pool counters: %+v", mv)
	}
}
